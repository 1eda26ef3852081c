"""The static independence map of ``src/eisen``: which code each route can reach.

One parse gives a graph of the package's functions, methods and constants,
named ``module.name`` and ``module.Class.name``.  A node reaches what its
source names, at any depth; annotations add no edge, and a call of a class
reaches its constructors.  An attribute resolves through ``self``/``cls``, a
package module or class, or ``RECEIVERS``.  A class member's name read on any
other receiver is unresolved, and ``UNRESOLVED`` pins those reads.  Dynamic
dispatch is left to the runtime spies of the other test files.

The same graph says what no entry point reaches: code that only the tests or
the bench call goes, save the pinned names the bench still reads.
"""

import ast
import sys
from pathlib import Path

import pytest

from helpers import bench_attribute_reads, bench_span_targets

ROOT = Path(__file__).resolve().parents[1]
SOURCES = ROOT / "src" / "eisen"
CONSTRUCTORS = ("__new__", "__init__", "__post_init__")

#: the class a parameter or local of this name holds, wherever the package uses the name
RECEIVERS = {"table": "eisenstein.EisensteinTable", "gf": "irreducibility._PackedGF", "phi": "gekeler.GekelerPolynomial",
             "cert": "irreducibility.IrreducibilityCertificate", "polygon": "irreducibility.NewtonPolygon",
             "report": "replicate.CheckReport"}

#: reads of a class member's name on a receiver the graph cannot type, as (reader, name)
UNRESOLVED = {
    ("eisenstein._popa_graded", "numerators"),  # on GradedForm.combination's result
    ("qmring.GradedForm._normalised", "__new__"),  # object.__new__
    ("irreducibility.distinct_degree_pattern", "extend"),  # list.extend
    ("recheck._ddf_by_repeated_squaring", "extend"),
}

#: each route's entry points
ROUTES = {
    "rademacher": {"eisenstein.rademacher_expand", "eisenstein._evaluate"},
    "popa graded": {"eisenstein._popa_graded"},
    "popa precancelled": {"eisenstein._popa_precancelled"},
    "division": {"gekeler.phi_by_division"},
    "closed form": {"gekeler.phi_closed_form"},
    "certifier": {"irreducibility.dumas_check", "irreducibility.select_witness_primes", "irreducibility.distinct_degree_pattern",
                  "irreducibility.assemble_pattern_certificate", "irreducibility.IrreducibilityCertificate.to_json_dict"},
    "re-checker": {"recheck.recheck_dumas_certificate", "recheck.recheck_pattern_certificate"},
    "direct q-series": {"eisenstein.q_expansion_direct"},
    "graded substitution": {"eisenstein.EisensteinTable.graded_form", "qmring.substitute_q_expansion"},
    "dumas screen": {"replicate.dumas_applies"},
    "dumas criterion": {"irreducibility.dumas_check"},
    "value check": {"eisenstein._check_q_coefficients"},
}
#: what Rademacher's sum shares with each Popa route, and what the two Popa routes share besides
_SUM = {"eisenstein.exponents", "eisenstein._reduced", "eisenstein._require_weights"}
_POPA = {"eisenstein.EisensteinTable.integer_view", "eisenstein._popa_common_terms", "eisenstein.popa_c", "eisenstein.popa_d"}

#: the routes that check each other, and the primitives they share: these and what they reach, nothing else
PAIRS = [
    ("rademacher", "popa graded", _SUM),
    ("rademacher", "popa precancelled", _SUM),
    ("popa graded", "popa precancelled", _SUM | _POPA),
    ("division", "closed form",
     {"eisenstein.EisensteinTable.integer_view", "exact.zeta_ratio", "gekeler.GekelerPolynomial.from_ratio"}),
    ("certifier", "re-checker", set()),
    ("direct q-series", "graded substitution", {"exact.bernoulli", "exact.divisor_power_sum"}),
    ("dumas screen", "dumas criterion", {"exact.valuation"}),
    ("value check", "rademacher", {"eisenstein.exponents"}),
]


#: where the package is entered: the CLI, which reaches every command, and the
#: two re-checkers that CI runs from a lone copy of recheck.py
ENTRY_POINTS = {"cli.main", "recheck.recheck_dumas_certificate", "recheck.recheck_pattern_certificate"}

#: the nodes no entry point reaches yet, each kept because bench/ still reads it; the set may only shrink
NOT_YET_REACHED = {"eisenstein.EisensteinTable.max_weight", "eisenstein.rademacher_expand_folded",
                   "irreducibility.finite_field_degree_patterns", "irreducibility.primitive_integer_polynomial"}


def _imports(tree: ast.AST):
    """(module, aliases) of each import, with the package's relative imports made absolute (eisen.*)."""
    for n in ast.walk(tree):
        if isinstance(n, ast.Import):
            yield from ((alias.name, ()) for alias in n.names)
        elif isinstance(n, ast.ImportFrom):
            yield ("eisen." * bool(n.level) + (n.module or "")).rstrip("."), n.names


def _members(prefix: str, body: list):
    """(name, AST) of each function and constant that a module or class body defines."""
    for s in body:
        if isinstance(s, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield f"{prefix}.{s.name}", s
        elif isinstance(s, (ast.Assign, ast.AnnAssign)) and s.value:
            targets = s.targets if isinstance(s, ast.Assign) else [s.target]
            yield from ((f"{prefix}.{t.id}", s.value) for t in targets if isinstance(t, ast.Name))


def _annotations(tree: ast.AST):
    """Each annotation in ``tree``: of an argument, a return or an annotated assignment."""
    for n in ast.walk(tree):
        note = getattr(n, "annotation", None) or getattr(n, "returns", None)
        if isinstance(note, ast.AST):
            yield note


class Graph:
    def __init__(self, root: Path):
        trees = {path.stem: ast.parse(path.read_text()) for path in sorted(root.glob("*.py"))}
        self.imports = {m: list(_imports(tree)) for m, tree in trees.items()}
        bodies, self.members = {}, {}  # node -> its AST; class -> the names it defines
        for m, tree in trees.items():
            bodies.update(_members(m, tree.body))
            for c in (s for s in tree.body if isinstance(s, ast.ClassDef)):
                members = dict(_members(f"{m}.{c.name}", c.body))
                self.members[f"{m}.{c.name}"] = {name.rpartition(".")[2] for name in members}
                bodies.update(members)
        self.edges = {node: set() for node in bodies}
        self.attributes = {node: set() for node in bodies}  # the attribute names each node reads
        self.unresolved = set()
        member_names = set().union(*self.members.values())
        scopes = {m: self._scope(m) for m in trees}
        for node, body in bodies.items():
            module, *inner = node.split(".")
            scope, enclosing = scopes[module], f"{module}.{inner[0]}" if len(inner) > 1 else ""
            skip = {id(n) for note in _annotations(body) for n in ast.walk(note)}
            called = {id(n.func) for n in ast.walk(body) if isinstance(n, ast.Call)}
            for n in ast.walk(body):
                if id(n) in skip:
                    continue
                if isinstance(n, ast.Name):
                    target = enclosing if n.id == "cls" else scope.get(n.id, "")
                elif isinstance(n, ast.Attribute):
                    self.attributes[node].add(n.attr)
                    base = getattr(n.value, "id", "")  # "" unless the receiver is a name
                    owner = scope.get(base, "").removeprefix("module ") or RECEIVERS.get(base, "")
                    owner = enclosing if base in ("self", "cls") else owner
                    if not owner and n.attr in member_names:
                        self.unresolved.add((node, n.attr))
                    target = f"{owner}.{n.attr}"
                else:
                    continue
                if target in self.members and id(n) in called:  # a class runs its constructors when called
                    self.edges[node] |= {f"{target}.{c}" for c in CONSTRUCTORS if c in self.members[target]}
                elif target in bodies:
                    self.edges[node].add(target)
        # what annotations name: type aliases, which no edge reaches
        self.annotated = bodies.keys() & {scopes[m].get(n.id) for m, tree in trees.items()
                                          for note in _annotations(tree) for n in ast.walk(note) if isinstance(n, ast.Name)}

    def _scope(self, module: str) -> dict:
        """Each top-level name of ``module``: its node or class, "module m" for a package module, or "outside"."""
        scope = {n.split(".")[1]: ".".join(n.split(".")[:2]) for n in self.edges if n.startswith(module + ".")}
        for source, aliases in self.imports[module]:
            package, _, source = source.partition(".")
            scope.update({} if aliases else {package: "outside"})
            for alias in aliases:
                found = f"{source}.{alias.name}" if source else f"module {alias.name}"
                scope[alias.asname or alias.name] = found if package == "eisen" else "outside"
        return scope

    def closure(self, entries, unresolved=()) -> set:
        """What ``entries`` reach; a (reader, name) of ``unresolved`` reaches every class member of that name."""
        edges = {node: set(targets) for node, targets in self.edges.items()}
        for reader, name in unresolved:
            edges[reader] |= {f"{c}.{name}" for c, names in self.members.items() if name in names}
        seen, new = set(), set(entries)
        while new:
            seen |= new
            new = set().union(*[edges[node] for node in new]) - seen
        return seen


def overlap(graph: Graph, one, other, allowed) -> tuple[set, set]:
    """What the closures of ``one`` and ``other`` share beyond the closure of ``allowed``, and what of it they do not."""
    common, permitted = graph.closure(one) & graph.closure(other), graph.closure(allowed)
    return common - permitted, permitted - common


def unreached(graph: Graph, entries, unresolved=()) -> set:
    """The nodes ``entries`` do not reach, less the dunders the runtime calls and the aliases annotations name."""
    missed = graph.edges.keys() - graph.closure(entries, unresolved) - graph.annotated
    return {node for node in missed if not (node.rpartition(".")[2].startswith("__") and node.endswith("__"))}


@pytest.fixture(scope="module")
def package() -> Graph:
    return Graph(SOURCES)


@pytest.mark.parametrize("one, other, allowed", PAIRS, ids=[f"{a} vs {b}" for a, b, _ in PAIRS])
def test_routes_share_only_their_primitives(package, one, other, allowed):
    assert ROUTES[one] | ROUTES[other] <= package.edges.keys()
    assert overlap(package, ROUTES[one], ROUTES[other], allowed) == (set(), set())


def test_every_node_is_reached(package):
    # the re-checkers are entry points because CI runs them from a lone copy of recheck.py
    workflow = (ROOT / ".github" / "workflows" / "tests.yml").read_text()
    assert all(f"{node}(" in workflow for node in ENTRY_POINTS if node.startswith("recheck."))
    assert unreached(package, ENTRY_POINTS, UNRESOLVED) == NOT_YET_REACHED
    # a pinned node stays only while the bench traces it or reads its name
    traced = {f"{module.removeprefix('eisen.')}.{attr}" for module, attr in bench_span_targets()}
    assert all(node in traced or node.rpartition(".")[2] in bench_attribute_reads() for node in NOT_YET_REACHED)


def test_unresolved_reads_are_pinned(package):
    assert package.unresolved == UNRESOLVED


def test_the_import_rules(package):
    # each module's imports as dotted names: "eisen.exact" and "eisen.exact.valuation" for "from .exact import valuation"
    imports = {m: {module for module, _ in found} | {f"{module}.{a.name}" for module, aliases in found for a in aliases}
               for m, found in package.imports.items()}
    # eisen.recheck runs as one file on the standard library, and only replicate
    # imports it, so the certifier never borrows re-checker code
    assert imports["recheck"] and all(name.partition(".")[0] in sys.stdlib_module_names for name in imports["recheck"])
    assert {m for m, names in imports.items() if "eisen.recheck" in names} == {"replicate"}
    # the root imports nothing, and "from . import x" takes a module, never a name the root does not hold
    assert imports["__init__"] == set()
    through_root = {name for names in imports.values() for name in names if name.count(".") == 1 and name[:6] == "eisen."}
    assert through_root <= {f"eisen.{m}" for m in imports}


def test_only_the_storage_methods_name_the_storage_dict(package):
    readers = {node for node, names in package.attributes.items() if "_views" in names}
    storage = ("__init__", "__contains__", "weights", "integer_view", "_store")
    assert readers == {f"eisenstein.EisensteinTable.{name}" for name in storage}


SYNTHETIC = {
    "core.py": "from . import relay\n"
    "class Box:\n    def __init__(self): self.size = 0\n    def open(self): return self.size\n"
    "    def __len__(self): return self.size\n"
    "def forbidden(): return 0\ndef orphan(): return 0\ndef route_a(): return relay.helper()\ndef route_b(): return forbidden()\n"
    "Alias = Box\ndef build(): return Box()\ndef annotated(box: Box) -> Alias:\n    inner: Alias = box\n    return inner\n"
    "def unknown(thing): return thing.open()\n",
    "relay.py": "from .core import forbidden\ndef helper(): return forbidden()\n",
}


def test_the_map_of_a_synthetic_package(tmp_path):
    for name, text in SYNTHETIC.items():
        (tmp_path / name).write_text(text)
    graph = Graph(tmp_path)
    # a helper that one route reaches through another function is reported
    assert overlap(graph, {"core.route_a"}, {"core.route_b"}, set()) == ({"core.forbidden"}, set())
    # a read on a receiver outside RECEIVERS is unresolved
    assert graph.unresolved == {("core.unknown", "open")}
    # a class or constant named only in annotations adds no edge; a call of a class reaches its constructor
    assert graph.edges["core.annotated"] == set()
    assert graph.edges["core.build"] == {"core.Box.__init__"}
    # from every function but one: that one is unreached; an unresolved read reaches each member of its name;
    # a dunder method and an alias named only in annotations are exempt
    entries = {"core.route_a", "core.route_b", "core.build", "core.annotated", "core.unknown"}
    assert graph.annotated == {"core.Alias"}
    assert unreached(graph, entries) == {"core.orphan", "core.Box.open"}
    assert unreached(graph, entries, graph.unresolved) == {"core.orphan"}
