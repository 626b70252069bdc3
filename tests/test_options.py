"""The package's settable options: every defaulted parameter, pinned by name.

A default that restates a constant lets two copies of one size drift
apart, so a new one fails here until the pin is edited on purpose.
"""

import ast
import pathlib

import kodsim

DEFAULTED = {
    ("cli", "_resolve", "where"),
    ("cli", "resolve_config", "seed_override"),
    ("cli", "run", "n_threads"),
    ("cli", "main", "argv"),
    ("heterodyne", "run_het_ensemble", "n_threads"),
    ("heterodyne", "cartan_identity_defect", "dim"),
    ("photodetector", "born_pmf", "n_max"),
    ("photodetector", "run_photo_ensemble", "n_threads"),
    ("verify", "run_identity_checks", "groups"),
}


def defaulted_parameters(path: pathlib.Path):
    """``(module, function, parameter)`` for each parameter with a default."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            args = node.args
            positional = args.posonlyargs + args.args
            named = positional[len(positional) - len(args.defaults):] if args.defaults else []
            named += [a for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
            for arg in named:
                yield path.stem, getattr(node, "name", "<lambda>"), arg.arg


def test_defaulted_parameters_pinned():
    src = pathlib.Path(kodsim.__file__).parent
    found = [entry for path in sorted(src.glob("*.py")) for entry in defaulted_parameters(path)]
    assert len(found) == len(set(found))
    assert set(found) == DEFAULTED
