"""Guards against new settings.

Every ``RunConfig`` field and every defaulted parameter is a value a caller
can set, and each one multiplies the configurations that tests must cover.
These tests pin the first and cap the second, so adding a setting is a
deliberate edit here rather than a side effect.
"""

import ast
from dataclasses import fields
from pathlib import Path

import linkfold
from linkfold.report import RunConfig

_PACKAGE = Path(linkfold.__file__).resolve().parent
# defaulted parameters across src/linkfold/*.py, counted as below
_MAX_DEFAULTED_PARAMETERS = 30


def test_run_config_fields_are_pinned():
    assert [f.name for f in fields(RunConfig)] == [
        "f_text",
        "g_text",
        "n",
        "epsilon",
        "rng_seed",
        "dead_band",
        "seed_samples",
        "equivariance_samples",
        "oracle_samples",
        "out_dir",
    ]


def _defaulted_parameters(source):
    """Positional defaults plus keyword-only defaults of every def and lambda."""
    count = 0
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            count += len(node.args.defaults)
            count += sum(d is not None for d in node.args.kw_defaults)
    return count


def test_defaulted_parameter_count_has_a_ceiling():
    count = sum(
        _defaulted_parameters(path.read_text(encoding="utf-8"))
        for path in sorted(_PACKAGE.glob("*.py"))
    )
    assert count <= _MAX_DEFAULTED_PARAMETERS
