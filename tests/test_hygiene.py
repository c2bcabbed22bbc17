"""Source hygiene: no module of the package, the tests or the scripts
imports a name it never uses, no module of the package, the scripts or
the benchmark imports a private name of the package, and only `linalg`
reads the integer rows of a matrix or the nonzeros of a vector, or names
`invert`: a condition carries its inverse, so nothing else inverts a
matrix.  In `tails`, only `_aligned` takes the lcm of periods.  Every
public name of the package has a reader in the program or is on one
list of the paper's claims.  Every source file parses as Python 3.10."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def unused_imports(path):
    tree = ast.parse(path.read_text(), str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(
                node, "module", None) != "__future__":
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return ["%s:%d %s" % (path.relative_to(ROOT), line, name)
            for name, line in sorted(imported.items()) if name not in used]


def test_no_unused_imports():
    paths = [p for d in ("src/qforge", "tests", "scripts")
             for p in sorted((ROOT / d).rglob("*.py"))]
    assert paths
    assert [u for p in paths for u in unused_imports(p)] == []


def private_imports(path):
    tree = ast.parse(path.read_text(), str(path))
    return ["%s:%d %s" % (path.relative_to(ROOT), node.lineno, alias.name)
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
            and (node.level or (node.module or "").split(".")[0] == "qforge")
            for alias in node.names if alias.name.startswith("_")]


def test_no_private_imports_across_package_modules():
    # the scripts and the benchmark read the package from outside, and
    # count as readers of its public names below
    paths = [p for d in ("src/qforge", "scripts", "perfbench")
             for p in sorted((ROOT / d).rglob("*.py"))]
    assert paths
    assert [u for p in paths for u in private_imports(p)] == []


# the stored forms of RMatrix rows (ints, den) and WindowVector nonzeros
PRIVATE_ROWS = ("_rows", "_nz")


def private_row_reads(path):
    tree = ast.parse(path.read_text(), str(path))
    return ["%s:%d %s" % (path.relative_to(ROOT), node.lineno, node.attr)
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr in PRIVATE_ROWS]


def test_integer_rows_are_read_only_in_linalg():
    linalg = ROOT / "src/qforge/linalg.py"
    assert private_row_reads(linalg)  # the check sees the reads it forbids
    paths = [p for d in ("src/qforge", "scripts")
             for p in sorted((ROOT / d).rglob("*.py")) if p != linalg]
    assert paths
    assert [u for p in paths for u in private_row_reads(p)] == []


def calls_by_function(path, name):
    """The names of the functions whose bodies call `name`, plain or as
    an attribute, once per call; "" for a call outside every function."""
    out = []

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        if isinstance(node, ast.Call):
            func = node.func
            if getattr(func, "id", None) == name or getattr(func, "attr", None) == name:
                out.append(where)
        for child in ast.iter_child_nodes(node):
            visit(child, where)
    visit(ast.parse(path.read_text(), str(path)), "")
    return out


def test_tails_are_aligned_only_by_aligned():
    # each lcm of periods is bounded by MAX_TAIL there
    assert set(calls_by_function(ROOT / "src/qforge/tails.py", "lcm")) == {"_aligned"}


def test_no_int_truncates_input():
    # int(1.9) is 1 and int(True) is 1: numbers read from input go through
    # linalg.check_int, which refuses them.  int is called only with a base
    # (_branch_sets' int(word, 2)), on argv text (cli._parse_ordinal) and,
    # base 10, on the digits that linalg.ratio's pattern has matched
    calls = {(p.name, where) for p in sorted((ROOT / "src/qforge").rglob("*.py"))
             for where in calls_by_function(p, "int")}
    assert calls == {("families.py", "_branch_sets"), ("cli.py", "_parse_ordinal"),
                     ("linalg.py", "ratio")}


def names(path):
    """Every name a module defines, uses, imports or reads as an attribute."""
    out = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out.add(node.name)
        elif isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.asname or node.name)
    return out


def test_only_linalg_inverts():
    linalg = ROOT / "src/qforge/linalg.py"
    assert "invert" in names(linalg)  # the check sees the name it forbids
    paths = [p for p in sorted((ROOT / "src/qforge").rglob("*.py"))
             if p != linalg]
    assert paths
    assert [p.name for p in paths if "invert" in names(p)] == []


def test_sources_parse_as_python_3_10():
    # the grammar only: a library call new in 3.11 would still pass
    paths = [p for d in ("src", "tests", "scripts", "perfbench")
             for p in sorted((ROOT / d).rglob("*.py"))]
    assert paths
    for p in paths:
        ast.parse(p.read_text(), str(p), feature_version=(3, 10))


# the public names that nothing in the program reads, each a claim of the
# paper that the tests check, or a test oracle's subject
UNREAD_PUBLIC_NAMES = {
    "tails.lifting_index",  # criterion 4
    "tails.restriction_index",  # criterion 4
    "tails.TailVector.tail_sup",  # criterion 4
    "adf.injections.nice_ext",  # criterion 5
    "adf.injections.verify_nice_ext",  # criterion 5
    "adf.coherent.separator_from_embedding",  # criterion 6
    "adf.coherent.CoherentFamily.derived_set",  # criterion 6
    "adf.certset.CertSet.eq_star",  # criterion 6
    "tails.eq_star",  # held by dense_oracles.tails_eq_star
    "adf.certset.CertSet.from_progressions",  # ROADMAP item 3 decides
}


def public_names():
    """{module.name: is a method} of every public function and class of
    the package, a method named module.Class.name."""
    out = {}
    package = ROOT / "src/qforge"
    for path in sorted(package.rglob("*.py")):
        module = ".".join(path.relative_to(package).with_suffix("").parts)
        for node in ast.parse(path.read_text(), str(path)).body:
            if (not isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    or node.name.startswith("_")):
                continue
            out["%s.%s" % (module, node.name)] = False
            for item in node.body if isinstance(node, ast.ClassDef) else ():
                if (isinstance(item, ast.FunctionDef)
                        and not item.name.startswith("_")):
                    out["%s.%s.%s" % (module, node.name, item.name)] = True
    return out


def benchmark_targets():
    """module.path of every name that perfbench/tracing.py's TARGETS
    wraps: the benchmark reads those by string."""
    path = ROOT / "perfbench/tracing.py"
    for node in ast.parse(path.read_text(), str(path)).body:
        if (isinstance(node, ast.Assign)
                and getattr(node.targets[0], "id", None) == "TARGETS"):
            return {"%s.%s" % (t.elts[0].value, t.elts[1].value)
                    for t in node.value.elts}
    raise AssertionError("no TARGETS in perfbench/tracing.py")


def unread_public_names():
    """The public names with no reader in the program: a function or class
    is read by a name, an attribute or an import of its name, a method by
    an attribute of its name, and either by a benchmark target."""
    read, attrs = set(), set()
    for d in ("src", "scripts", "perfbench"):
        for path in sorted((ROOT / d).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if isinstance(node, ast.Name):
                    read.add(node.id)
                elif isinstance(node, ast.Attribute):
                    attrs.add(node.attr)
                elif isinstance(node, ast.alias):
                    read.add(node.asname or node.name)
    targets = benchmark_targets()
    return sorted(name for name, is_method in public_names().items()
                  if name not in targets
                  and name.rpartition(".")[2] not in (
                      attrs if is_method else attrs | read))


def test_every_public_name_has_a_reader():
    names = public_names()
    assert "linalg.RMatrix.matmul" in names and "cli.main" in names
    assert "linalg.invert" in benchmark_targets()
    # a listed name that gains a reader leaves the list
    assert unread_public_names() == sorted(UNREAD_PUBLIC_NAMES)
