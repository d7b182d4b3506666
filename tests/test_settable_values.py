"""No knob that nobody sets: every defaulted parameter of the package, and
every defaulted field of its dataclasses, is passed by some call in the
package or in the benchmark.  No export that nobody lists: the public names
of the package are pinned."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "cyclesense").glob("*.py"))
CALLERS = PACKAGE + sorted((ROOT / "perfbench").glob("*.py"))


def defaulted_parameters(tree):
    """(function name, parameter, call position or None, line) of every
    parameter with a default; a method's position skips self or cls."""
    found = []

    def visit(node, in_class):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                a = child.args
                positional = a.posonlyargs + a.args
                static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                             for d in child.decorator_list)
                skip = 1 if in_class and not static else 0
                for i in range(len(positional) - len(a.defaults), len(positional)):
                    found.append((child.name, positional[i].arg, i - skip, child.lineno))
                found.extend((child.name, arg.arg, None, child.lineno)
                             for arg, d in zip(a.kwonlyargs, a.kw_defaults)
                             if d is not None)
                visit(child, False)
            else:
                visit(child, in_class or isinstance(child, ast.ClassDef))

    visit(tree, False)
    return found


def _called_name(call):
    f = call.func
    return f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)


def defaulted_fields(tree):
    """(class name, field, __init__ position, line) of every defaulted
    __init__ field of a dataclass; fields declared with init=False are not
    __init__ parameters and are skipped."""
    found = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.ClassDef) and any(
                (_called_name(d) if isinstance(d, ast.Call) else getattr(d, "id", None))
                == "dataclass" for d in node.decorator_list)):
            continue
        position = 0
        for stmt in node.body:
            if not (isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)):
                continue
            value = stmt.value
            options = ({k.arg: k.value for k in value.keywords}
                       if isinstance(value, ast.Call) and _called_name(value) == "field"
                       else None)
            init = (options or {}).get("init")
            if isinstance(init, ast.Constant) and init.value is False:
                continue
            if value is not None and (options is None or "default" in options
                                      or "default_factory" in options):
                found.append((node.name, stmt.target.id, position, stmt.lineno))
            position += 1
    return found


def passed_arguments(paths):
    """Per called name: the keywords passed, the most positional arguments
    passed, and whether some call unpacks *args or **kwargs.  A call of cls
    inside a class body counts as a call of that class."""
    calls = {}

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                name = _called_name(child)
                if name == "cls" and owner is not None:
                    name = owner
                keywords, most, unpacked = calls.get(name, (set(), 0, False))
                calls[name] = (
                    keywords | {k.arg for k in child.keywords if k.arg},
                    max(most, len(child.args)),
                    unpacked or any(k.arg is None for k in child.keywords)
                    or any(isinstance(a, ast.Starred) for a in child.args))
            visit(child, child.name if isinstance(child, ast.ClassDef) else owner)

    for path in paths:
        visit(ast.parse(path.read_text()), None)
    return calls


def never_passed(scan):
    """path:line name(value) of every defaulted value that scan finds in the
    package and that no call passes, by keyword, by position or unpacked."""
    calls = passed_arguments(CALLERS)
    unset = []
    for path in PACKAGE:
        for name, param, position, line in scan(ast.parse(path.read_text())):
            keywords, most, unpacked = calls.get(name, (set(), 0, False))
            if not (unpacked or param in keywords
                    or (position is not None and position < most)):
                unset.append(f"{path.name}:{line} {name}({param})")
    return unset


def test_every_default_is_overridden_by_some_caller():
    """Calls are matched to functions by name alone (the last attribute of
    the callee), so functions that share a name share their calls, and a call
    that unpacks *args or **kwargs counts as passing every parameter.  Calls
    from tests do not count: a value that only a test sets is a knob that no
    run of the program uses."""
    assert never_passed(defaulted_parameters) == []


def test_every_dataclass_default_is_overridden_by_some_construction():
    """The same rule for dataclass fields, whose defaults the generated
    __init__ takes: a construction is a call of the class by name, or of cls
    inside its body."""
    assert never_passed(defaulted_fields) == []


#: every public name of the package, its 7 submodules included
PUBLIC_NAMES = [
    "CompositeEvolution", "ConfigError", "ConvergenceError", "CycleSenseError",
    "DomainError", "EstimabilityError", "FitError", "GeneratorMoments", "Grid",
    "GridError", "GridOverflowError", "JointState", "KickVector", "Moments",
    "NetworkGeometry", "NoiseModel", "NormalizationError", "PolarizationState",
    "PostSelection", "PostSelectionError", "ProbeSpec", "ReadoutModel",
    "RegimeError", "RunConfig", "ScalingFit", "SensorDriveModel", "SweepResult",
    "SwitchMode", "TABLETOP_PRECISION_TABLE", "WaveFunction", "apply_kick",
    "apply_propagation", "apply_shift", "calibrate_noise_floor",
    "composite_apply", "config", "diffracted_radius", "end_to_end_sweep", "errors",
    "fidelity", "first_order_momentum_shift", "fisher", "fit_scaling_law",
    "fit_snr_vs_voltage", "g_params", "grid", "half_wave_plate", "make_gaussian",
    "max_difference_up_to_phase", "min_detectable_tilt", "moments",
    "momentum_readout", "network", "overlap", "pipeline",
    "probe_alone_qfi_at_origin", "qcrb_comparison", "qcrb_global",
    "qfim_classical_switch", "qfim_numerical", "qfim_quantum_switch",
    "qfim_sequential", "qpd_signal", "quarter_wave_plate", "rotation_y",
    "rotation_z", "sandwich_jones", "snr_model", "switched_state_family",
    "traverse_sequence", "voltage_to_beam_tilt", "waveplate_compensation",
    "weak_value", "wva", "wva_final_probe",
]


def test_public_names_are_pinned(run_probe):
    """Read in a fresh interpreter: importing cyclesense.cli or .oracle, as
    other tests do, binds them as attributes of the package."""
    code = ("import cyclesense; print(' '.join(n for n in dir(cyclesense) "
            "if not n.startswith('_')))")
    assert run_probe(code).split() == PUBLIC_NAMES
