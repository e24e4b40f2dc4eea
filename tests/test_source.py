"""Every top-level function and class of the package, and every method of
those classes, is used by other package code, and every defaulted
parameter of those functions, and every plainly defaulted field of those
dataclasses, is set by some package call and left at its default by
another; no parameter is given one literal by every package call: an API,
a knob or a default only the tests use belongs in the tests.  The package
runs on numpy alone: scipy is a test dependency."""

import ast
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

from conftest import load_perfbench

SRC = Path(__file__).resolve().parents[1] / "src" / "tdxray"

# bound by name from outside the package: the benchmark's tracer counts
# the rays traced through geodesic_trace and times the DtN traces taken
# through dtn_apply
OUTSIDE_CALLERS = {"geodesic_trace", "dtn_apply"}

# defaulted parameters and fields that no package call sets, each kept for
# a reason other than a test
KEPT_PARAMETERS = {
    # perfbench/workloads.py builds MetricSpec("conformal", c)
    "MetricSpec.kind",
    "MetricSpec.c",
    # time-dependent factors are the paper's subject; the dtn pipeline is
    # to take them next
    "bump_factor.t_center",
    "bump_factor.t_width",
    # the console entry point reads sys.argv; tests pass their own
    "main.argv",
}

# defaulted parameters that every package call sets, each kept for a
# reason other than a test
KEPT_DEFAULTS = {
    # perfbench/workloads.py calls xray.sinogram without dt
    "sinogram.dt",
}


# parameters that every package call passes the same literal, each kept
# for a reason other than a test
KEPT_LITERALS = {
    # C09 fixes the concentration lemma's lambda sweep and its time; the
    # tests probe other lambda and t
    "gaussian_concentration.lambdas",
    "gaussian_concentration.t_eval",
}


def definitions(tree):
    """(name, node, is_method) for each top-level function and class of
    the module and each non-dunder method of those classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node, False
        if isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, ast.FunctionDef) and not (
                        sub.name.startswith("__") and sub.name.endswith("__")):
                    yield sub.name, sub, True


def uses(tree):
    """Counts of the names loaded and of the attributes read in tree."""
    names, attrs = Counter(), Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute):
            attrs[node.attr] += 1
    return names, attrs


def unused_definitions(src: Path) -> list[str]:
    modules = {path: ast.parse(path.read_text())
               for path in sorted(src.rglob("*.py"))}
    names, attrs = Counter(), Counter()
    for tree in modules.values():
        n, a = uses(tree)
        names += n
        attrs += a
    unused = []
    for path, tree in modules.items():
        for name, node, is_method in definitions(tree):
            # a definition's uses inside itself (recursion) do not count
            own_names, own_attrs = uses(node)
            count = attrs[name] - own_attrs[name]
            if not is_method:
                count += names[name] - own_names[name]
            if count == 0:
                unused.append(f"{path.relative_to(src)}:{node.lineno} {name}")
    return unused


def test_every_definition_has_a_caller_in_src():
    assert [entry for entry in unused_definitions(SRC)
            if entry.split()[1] not in OUTSIDE_CALLERS] == []


def test_outside_callers_still_bound_and_uncalled(monkeypatch):
    # an exemption ends when the tracer stops binding the name, or when a
    # package call takes it up
    tracer = load_perfbench("tracer", monkeypatch)
    assert OUTSIDE_CALLERS <= {attr for _, attr, *_ in tracer.FUNCTIONS}
    assert OUTSIDE_CALLERS <= {entry.split()[1]
                               for entry in unused_definitions(SRC)}


def parameters(node, is_method):
    """(name, position, defaulted) of each parameter of a function that a
    call passes, self or cls left out; the position counts the arguments
    a call passes, None for keyword-only."""
    args = node.args
    positional = args.posonlyargs + args.args
    skip = 1 if is_method and not any(
        isinstance(d, ast.Name) and d.id == "staticmethod"
        for d in node.decorator_list) else 0
    first = len(positional) - len(args.defaults)
    for i, arg in enumerate(positional[skip:], skip):
        yield arg.arg, i - skip, i >= first
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        yield arg.arg, None, default is not None


def defaulted_parameters(node, is_method):
    """(name, position) of each defaulted parameter of a function."""
    return [(name, position) for name, position, defaulted
            in parameters(node, is_method) if defaulted]


def is_dataclass(node) -> bool:
    return any(ast.unparse(d).split("(")[0] in ("dataclass",
                                                "dataclasses.dataclass")
               for d in node.decorator_list)


def is_field_call(value) -> bool:
    return (isinstance(value, ast.Call)
            and ast.unparse(value.func) in ("field", "dataclasses.field"))


def defaulted_fields(node):
    """(name, position) of each field of a dataclass with a plain default;
    the position counts the constructor's arguments.  A field(...) default
    (a default_factory) holds state, not an option, and is skipped."""
    position = 0
    for stmt in node.body:
        if not (isinstance(stmt, ast.AnnAssign)
                and isinstance(stmt.target, ast.Name)):
            continue
        if stmt.value is not None and not is_field_call(stmt.value):
            yield stmt.target.id, position
        position += 1


def sets(call, name, position):
    """Whether a call passes the parameter, by keyword, by position or
    through an unpacked * or ** argument."""
    if any(k.arg in (None, name) for k in call.keywords):
        return True
    return position is not None and (
        len(call.args) > position
        or any(isinstance(a, ast.Starred) for a in call.args))


def package_calls(modules) -> dict:
    """{name: [call, ...]} of every call in the modules, by the called
    name or attribute."""
    calls = {}
    for tree in modules.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                callee = (func.id if isinstance(func, ast.Name) else
                          func.attr if isinstance(func, ast.Attribute)
                          else None)
                calls.setdefault(callee, []).append(node)
    return calls


def parameter_calls(src: Path):
    """(function.parameter, location, whether each package call of the
    function sets it) for each defaulted parameter, and the same with
    Class.field for each plainly defaulted dataclass field; calls are
    matched to definitions by name."""
    modules = {path: ast.parse(path.read_text())
               for path in sorted(src.rglob("*.py"))}
    calls = package_calls(modules)
    for path, tree in modules.items():
        for name, node, is_method in definitions(tree):
            if isinstance(node, ast.ClassDef):
                if not is_dataclass(node):
                    continue
                params = defaulted_fields(node)
            else:
                params = defaulted_parameters(node, is_method)
            for param, position in params:
                yield (f"{name}.{param}",
                       f"{path.relative_to(src)}:{node.lineno}",
                       [sets(call, param, position)
                        for call in calls.get(name, [])])


def unset_parameters(src: Path) -> dict[str, str]:
    """{function.parameter: location} of each defaulted parameter that
    no call in the package sets."""
    return {key: where for key, where, set_by in parameter_calls(src)
            if not any(set_by)}


def overridden_defaults(src: Path) -> dict[str, str]:
    """{function.parameter: location} of each defaulted parameter that
    every call in the package sets, so only the tests read its default."""
    return {key: where for key, where, set_by in parameter_calls(src)
            if set_by and all(set_by)}


def test_every_defaulted_parameter_is_set_in_src():
    unset = unset_parameters(SRC)
    assert {key: where for key, where in unset.items()
            if key not in KEPT_PARAMETERS} == {}
    # an entry a package call now sets, or that is gone, is no longer kept
    assert KEPT_PARAMETERS <= set(unset)


def test_every_default_is_read_in_src():
    overridden = overridden_defaults(SRC)
    assert {key: where for key, where in overridden.items()
            if key not in KEPT_DEFAULTS} == {}
    # an entry a package call now leaves at its default, or that is gone,
    # is no longer kept
    assert KEPT_DEFAULTS <= set(overridden)


def passed(call, name, position):
    """The argument a call passes for the parameter, by keyword or by
    position, or None."""
    for keyword in call.keywords:
        if keyword.arg == name:
            return keyword.value
    if position is not None and len(call.args) > position:
        return call.args[position]
    return None


def literal(node):
    """(True, value) of an argument ast.literal_eval reads, else
    (False, None)."""
    try:
        return True, ast.literal_eval(node)
    except (ValueError, TypeError, SyntaxError):
        return False, None


def literal_parameters(src: Path) -> dict[str, str]:
    """{function.parameter: location} of each parameter of a function or
    method that every package call passes the same literal.  A name
    defined more than once, whose calls cannot be told apart by name, and
    a function called with an unpacked * or ** argument are skipped."""
    modules = {path: ast.parse(path.read_text())
               for path in sorted(src.rglob("*.py"))}
    calls = package_calls(modules)
    defined = Counter(name for tree in modules.values()
                      for name, _, _ in definitions(tree))
    found = {}
    for path, tree in modules.items():
        for name, node, is_method in definitions(tree):
            its_calls = calls.get(name, [])
            if (isinstance(node, ast.ClassDef) or defined[name] > 1
                    or not its_calls or any(
                        any(isinstance(a, ast.Starred) for a in call.args)
                        or any(k.arg is None for k in call.keywords)
                        for call in its_calls)):
                continue
            for param, position, _ in parameters(node, is_method):
                args = [passed(call, param, position) for call in its_calls]
                if None in args:
                    continue
                values = [literal(arg) for arg in args]
                if all(ok for ok, _ in values) and all(
                        value == values[0][1] for _, value in values):
                    found[f"{name}.{param}"] = (
                        f"{path.relative_to(src)}:{node.lineno}")
    return found


def test_no_parameter_takes_one_literal():
    found = literal_parameters(SRC)
    assert {key: where for key, where in found.items()
            if key not in KEPT_LITERALS} == {}
    # an entry a package call now varies, or that is gone, is no longer
    # kept
    assert KEPT_LITERALS <= set(found)


def scipy_imports(src: Path) -> list[str]:
    """Every import of scipy or a scipy submodule in the package,
    including those inside functions."""
    found = []
    for path in sorted(src.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            found += [f"{path.relative_to(src)}:{node.lineno} {m}"
                      for m in modules if m.split(".")[0] == "scipy"]
    return found


def test_no_scipy_import_in_src():
    assert scipy_imports(SRC) == []


def fft_shifts(src: Path) -> list[str]:
    """Every use of numpy's fftshift or ifftshift in the package, as a
    name, an attribute or an import."""
    shifts = {"fftshift", "ifftshift"}
    found = []
    for path in sorted(src.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            name = (node.id if isinstance(node, ast.Name)
                    else node.attr if isinstance(node, ast.Attribute)
                    else node.name if isinstance(node, ast.alias) else None)
            if name is not None and name.split(".")[-1] in shifts:
                found.append(f"{path.relative_to(src)}:{node.lineno} {name}")
    return found


def test_no_fft_shift_in_src():
    # the lattice is kept in the FFT's own order; a shift would bring a
    # second, centred order back
    assert fft_shifts(SRC) == []


# a forward run and a beam run through the command line, after importing
# every entry module; prints the scipy modules then loaded
NO_SCIPY_RUN = """
import json, sys, tempfile
import tdxray, tdxray.cli, tdxray.harness.runner, tdxray.harness.acceptance
with tempfile.TemporaryDirectory() as tmp:
    for name, text in [
            ("forward", "rays.boundary = 2\\nrays.directions = 1\\n"),
            ("beam", "conformal.amplitude = 0.01\\nbeam.dt = 0.01\\n"
                     "beam.lambdas = 16, 32, 64, 128\\n")]:
        cfg = f"{tmp}/{name}.cfg"
        with open(cfg, "w") as fh:
            fh.write(text)
        assert tdxray.cli.main([name, "--config", cfg, "--out", tmp]) == 0
print(json.dumps(sorted(m for m in sys.modules
                        if m == "scipy" or m.startswith("scipy."))))
"""


def test_cli_runs_load_no_scipy():
    proc = subprocess.run([sys.executable, "-c", NO_SCIPY_RUN],
                          capture_output=True, text=True, timeout=300,
                          env={**os.environ, "PYTHONPATH": str(SRC.parent),
                               "TDXRAY_THREADS": "1"}, check=True)
    assert json.loads(proc.stdout.splitlines()[-1]) == []


RUNNER = SRC / "harness" / "runner.py"

# the pipelines read the dict validate returns, checked and with every
# default filled in, by cfg[key] alone; build_field keeps a default
# because perfbench/workloads.py calls runner.build_field({})
KEPT_CONFIG_GETS = {("build_field", "field.preset")}


def is_cfg(node) -> bool:
    return isinstance(node, ast.Name) and node.id == "cfg"


def is_cfg_get(node) -> bool:
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "get" and is_cfg(node.func.value))


def unchecked_config_reads(path: Path) -> list[str]:
    """Each cfg.get(...) call in the module's functions, but the kept ones,
    and each int, float or np.atleast_1d call around a config read."""
    found = []
    for fn in ast.parse(path.read_text()).body:
        if not isinstance(fn, ast.FunctionDef):
            continue
        for node in ast.walk(fn):
            if is_cfg_get(node):
                key = node.args[0].value if node.args else None
                if (fn.name, key) not in KEPT_CONFIG_GETS:
                    found.append(f"{fn.name}:{node.lineno} cfg.get")
            elif isinstance(node, ast.Call) and (
                    getattr(node.func, "id", None) in ("int", "float")
                    or getattr(node.func, "attr", None) == "atleast_1d"):
                if any(is_cfg_get(n) or (isinstance(n, ast.Subscript)
                                         and is_cfg(n.value))
                       for arg in node.args for n in ast.walk(arg)):
                    found.append(f"{fn.name}:{node.lineno} "
                                 f"{ast.unparse(node.func)}(cfg...)")
    return found


def test_pipelines_read_checked_config():
    assert unchecked_config_reads(RUNNER) == []
