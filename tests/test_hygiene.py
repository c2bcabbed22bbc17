"""Source hygiene: no module of the package, the tests or the scripts
imports a name it never uses, no module of the package, the scripts or
the benchmark imports a private name of the package, and only `linalg`
reads the integer rows of a matrix or the nonzeros of a vector, or names
`invert`: a condition carries its inverse, so nothing else inverts a
matrix.  Only `tails` reads the integer form of a tail.  In `tails`,
only `_aligned` takes the lcm of periods.  Every public name of the
package has a reader in the program or is on one list of the paper's
claims; a method whose name another class's method shares has its
reader named in a table checked by hand.  Every source
file parses as Python 3.10."""

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


def private_row_reads(path, attrs=PRIVATE_ROWS):
    tree = ast.parse(path.read_text(), str(path))
    return ["%s:%d %s" % (path.relative_to(ROOT), node.lineno, node.attr)
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr in attrs]


def test_integer_rows_are_read_only_in_linalg():
    linalg = ROOT / "src/qforge/linalg.py"
    assert private_row_reads(linalg)  # the check sees the reads it forbids
    paths = [p for d in ("src/qforge", "scripts")
             for p in sorted((ROOT / d).rglob("*.py")) if p != linalg]
    assert paths
    assert [u for p in paths for u in private_row_reads(p)] == []


def test_tail_integer_form_is_read_only_in_tails():
    # TailVector holds its values once more as (prefix ints, period ints,
    # den); other modules read it through TailVector.int_window
    tails = ROOT / "src/qforge/tails.py"
    assert private_row_reads(tails, ("_ints",))  # the check sees the reads it allows
    paths = [p for d in ("src/qforge", "scripts", "perfbench")
             for p in sorted((ROOT / d).rglob("*.py")) if p != tails]
    assert paths
    assert [u for p in paths for u in private_row_reads(p, ("_ints",))] == []


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
# paper that the tests check, or a test oracle's subject or reader
UNREAD_PUBLIC_NAMES = {
    "tails.lifting_index",  # criterion 4
    "tails.restriction_index",  # criterion 4
    "tails.TailVector.tail_sup",  # criterion 4
    "tails.TailVector.add",  # criterion 4: the span's vectors
    "tails.TailVector.scale",  # criterion 4: the span's vectors
    "tails.TailVector.value",  # read by dense_oracles.tails_eq_star
    "adf.injections.NInjection.identity",  # criterion 5's instances
    "adf.injections.NInjection.restrict",  # criterion 5's instances
    "adf.injections.nice_ext",  # criterion 5
    "adf.injections.verify_nice_ext",  # criterion 5
    "adf.coherent.separator_from_embedding",  # criterion 6
    "adf.coherent.CoherentFamily.derived_set",  # criterion 6
    # criterion 6's stage maps: in the program only each other reads them
    "adf.coherent.Stage.value",
    "adf.coherent.Stage.preimage",
    "adf.coherent.LimitCore.value",
    "adf.coherent.LimitCore.preimage",
    "adf.certset.CertSet.eq_star",  # criterion 6
    "tails.eq_star",  # held by dense_oracles.tails_eq_star
    "adf.certset.CertSet.from_progressions",  # ROADMAP item 3 decides
}


# every public method whose name another class's public method shares,
# with a reader of this class's method, checked by hand: the scan below
# reads a method by its bare name, which does not tell the classes apart.
# A reader that is a method of that name is itself in the table, and the
# readers it leads to end outside that name: two methods that read only
# each other have no reader
SHARED_METHOD_READERS = {
    "linalg.WindowVector.add": "geometry._combination",
    "adf.certset.CertSet.from_json_obj": "cli._load_sets",
    "config.RunConfig.from_json_obj": "config.load_config",
    "forcing.GenericRun.from_json_obj": "cli.cmd_verify_run",
    "tails.TailVector.from_json_obj": "forcing.PairedFamilies.json_parts",
    "linalg.RMatrix.identity": "forcing.amalgamate",
    "adf.ordinals.OrdinalIdx.is_zero": "adf.ordinals.OrdinalIdx.is_limit",
    "linalg.WindowVector.is_zero": "linalg.RMatrix.from_rows_vectors",
    "linalg.WindowVector.items": "geometry._lex_key",
    "linalg.RMatrix.items": "linalg.RMatrix.__reduce__",
    "adf.injections.NInjection.preimage": "adf.injections.nice_ext",
    "adf.injections.NInjection.value": "adf.injections.NInjection.eq_star_on",
    "linalg.WindowVector.restrict": "geometry.Subspace.__post_init__",
    "tails.TailVector.restrict": "forcing.amalgamate",
    "geometry.LinMap.scale": "geometry.balanced_rescale",
    "linalg.WindowVector.scale": "geometry._combination",
    "adf.certset.CertSet.to_json_obj": "cli._family_json",
    "config.RunConfig.to_json_obj": "forcing.verify_run",
    "forcing.PairedFamilies.to_json_obj": "cli.cmd_forge_matrix",
    "forcing.Condition.to_json_obj": "perfbench.workloads.Amalgamate.round",
    "forcing.GenericRun.to_json_obj": "cli.cmd_forge_matrix",
    "tails.TailVector.to_json_obj": "forcing.PairedFamilies.to_json_obj",
    "linalg.WindowVector.value": "geometry.Subspace.coefficient_extractor",
    "linalg.WindowVector.window": "linalg.coordinate_rows",
    "linalg.RMatrix.window": "forcing.validate_condition",
    "tails.TailVector.window": "tails.agree_from",
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


def shared_method_names():
    """The public methods whose name a public method of another class has."""
    classes = {}
    for name, is_method in public_names().items():
        if is_method:
            classes.setdefault(name.rpartition(".")[2], []).append(name)
    return {name for names in classes.values() if len(names) > 1 for name in names}


def attribute_reads():
    """{module.qualname: attributes its body reads} of every function of
    the program, a module of scripts/ or perfbench/ named by its folder."""
    out = {}
    for d in ("src/qforge", "scripts", "perfbench"):
        for path in sorted((ROOT / d).rglob("*.py")):
            parts = path.relative_to(ROOT / d).with_suffix("").parts
            module = ".".join(parts if d == "src/qforge" else (d,) + parts)

            def visit(node, where):
                if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                    where = where + (node.name,)
                if isinstance(node, ast.Attribute):
                    out.setdefault(".".join(where), set()).add(node.attr)
                for child in ast.iter_child_nodes(node):
                    visit(child, where)
            visit(ast.parse(path.read_text(), str(path)), (module,))
    return out


def unread_public_names():
    """The public names with no reader in the program: a function or class
    is read by a name, an attribute or an import of its name, a method by
    an attribute of its name or, when another class's method has its name,
    by its entry in SHARED_METHOD_READERS, and each by a benchmark target."""
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
    shared = shared_method_names()
    return sorted(name for name, is_method in public_names().items()
                  if name not in targets
                  and (name not in SHARED_METHOD_READERS if name in shared
                       else name.rpartition(".")[2] not in (
                           attrs if is_method else attrs | read)))


def test_every_public_name_has_a_reader():
    names = public_names()
    assert "linalg.RMatrix.matmul" in names and "cli.main" in names
    assert "linalg.invert" in benchmark_targets()
    # a listed name that gains a reader leaves the list
    assert unread_public_names() == sorted(UNREAD_PUBLIC_NAMES)


def first_reader_of_another_name(table, method):
    """The first reader, following the table's readers from method, that
    is not a method of method's name; None when they run in a cycle."""
    seen = set()
    while method in table and method not in seen:
        seen.add(method)
        reader = table[method]
        if reader.rpartition(".")[2] != method.rpartition(".")[2]:
            return reader
        method = reader
    return None


def test_each_shared_method_name_has_a_reader_per_class():
    shared = shared_method_names()
    assert "linalg.RMatrix.window" in shared and "tails.TailVector.window" in shared
    # an entry whose method is gone or no longer shares its name leaves
    # the table, and every named reader reads an attribute of that name
    assert set(SHARED_METHOD_READERS) <= shared
    reads = attribute_reads()
    assert sorted(method for method, reader in SHARED_METHOD_READERS.items()
                  if method.rpartition(".")[2] not in reads.get(reader, ())) == []
    pair = {"m.A.f": "m.B.f", "m.B.f": "m.A.f"}
    assert first_reader_of_another_name(pair, "m.A.f") is None  # the check sees a pair
    assert sorted(method for method in SHARED_METHOD_READERS
                  if first_reader_of_another_name(SHARED_METHOD_READERS, method)
                  is None) == []
