"""The library keeps no public name that nothing runs.

Every public top-level function or class, and every public method, in
``src/toeplitz_forge`` must be referenced outside its own definition by the
package itself, the scripts, the benchmarks or the perfbench harness, or
be named in ``ORACLES``.  Tests alone do not keep a name alive: a helper
only a test needs lives in that test.  Neither does an ``__all__`` entry,
nor, for a method, a same-named variable, string or standard-library
function.
"""

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "toeplitz_forge"

# Public names that only the tests call, each kept on purpose.
ORACLES = (
    # dual routes the tests compare the production routes against
    "bargmann_wick_product",  # closed Wick form vs the Morse engine on the plane
    "numeric_phase_integral",  # quadrature vs both stationary-phase expansions
    "gaussian_moment",  # Wick moments vs the Morse route
    "wick_degree_check",  # bracket degree vs the Wick count
    "phase_phi1_series",  # pointwise phase jet vs the engine's phase family
    "density_rho_series",  # pointwise density jet vs the engine's rho J
    "hull_vertices",  # vertex enumeration vs hull membership
    "norm_sq_monomial",  # level_moments at s = 0 as Fractions, pinned as literals
    "predict_integral",  # an expansion's prediction for numeric_phase_integral
    # paper claims and guards the tests check directly
    "lem_easy_sum",  # the two-sided sum lemma against its frozen constant
    "estimate_h_norm",  # one-function H(m, r) norm through the symbol-norm sup
    "sharp_inverse",  # f sharp f^{sharp -1} = the Bergman symbol
    "overlap_defect",  # jet agreement between neighbouring nodes
    "frame_to_chart",  # inverse of chart_to_frame; the frames of non-homogeneous models
    "schur_norm_bound",  # the Schur-test operator-norm bound C_N sup|amplitude|
)


def _sources():
    users = sorted(PACKAGE.glob("*.py"))
    for sub in ("scripts", "benchmarks"):
        users += sorted((ROOT / sub).rglob("*.py"))
    return users + sorted((ROOT / "perfbench").glob("*.py"))


def _stdlib_aliases(tree: ast.AST) -> set:
    """Names the module binds to standard-library modules (``import math``)."""
    return {alias.asname or alias.name.split(".")[0]
            for node in ast.walk(tree) if isinstance(node, ast.Import)
            for alias in node.names if alias.name.split(".")[0] in sys.stdlib_module_names}


def _all_entries(tree: ast.AST) -> set:
    """The string nodes of ``__all__``: listing a name is not running it."""
    return {id(const) for node in ast.walk(tree) if isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
            for const in ast.walk(node.value)}


def _references(tree: ast.AST):
    """(name, line, reaches a method) of every identifier the module mentions.

    Only an attribute reaches a method: a plain variable, an imported name,
    a string and an attribute of a standard-library module
    (``math.factorial``) keep top-level names alive, not methods.
    """
    stdlib, listed = _stdlib_aliases(tree), _all_entries(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno, False
        elif isinstance(node, ast.Attribute):
            on_stdlib = isinstance(node.value, ast.Name) and node.value.id in stdlib
            yield node.attr, node.lineno, not on_stdlib
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                yield alias.name, node.lineno, False
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and node.value.isidentifier() and id(node) not in listed:
            yield node.value, node.lineno, False


def _public_definitions(tree: ast.Module):
    """(qualified name, bare name, first line, last line) of public defs."""
    defs = (ast.FunctionDef, ast.ClassDef)
    for node in tree.body:
        if isinstance(node, defs) and not node.name.startswith("_"):
            yield node.name, node.name, node.lineno, node.end_lineno
        if isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("_"):
                    yield f"{node.name}.{sub.name}", sub.name, sub.lineno, sub.end_lineno


def test_every_public_name_is_run_or_kept_as_an_oracle():
    trees = {path: ast.parse(path.read_text(), filename=str(path)) for path in _sources()}
    seen = {}
    for path, tree in trees.items():
        for name, line, method in _references(tree):
            seen.setdefault(name, []).append((path, line, method))
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        for qual, name, first, last in _public_definitions(trees[path]):
            outside = [hit for hit in seen.get(name, ())
                       if not (hit[0] == path and first <= hit[1] <= last)
                       and (hit[2] or "." not in qual)]
            if not outside and name not in ORACLES:
                unused.append(f"{path.name}: {qual}")
    assert not unused, "public names nothing runs (delete, move into a test, or list in ORACLES): " \
        + ", ".join(unused)


def test_oracles_are_defined():
    # a stale entry would keep a future name of the same spelling alive
    defined = {name for path in PACKAGE.glob("*.py")
               for _, name, _, _ in _public_definitions(ast.parse(path.read_text()))}
    assert sorted(set(ORACLES) - defined) == []
