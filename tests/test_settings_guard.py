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
from linkfold.report import _CONFIG_KEYS, RunConfig

_PACKAGE = Path(linkfold.__file__).resolve().parent
# defaulted parameters across src/linkfold/*.py, counted as below
_MAX_DEFAULTED_PARAMETERS = 5


def test_run_config_fields_are_pinned():
    assert [f.name for f in fields(RunConfig)] == [
        "f_text",
        "g_text",
        "n",
        "epsilon",
        "rng_seed",
        "out_dir",
    ]


def test_config_keys_target_exactly_the_fields():
    # one key per field plus the aliases seed and out, so a removed field
    # cannot leave a live key behind
    targets = [attr for attr, _ in _CONFIG_KEYS.values()]
    assert set(targets) == {f.name for f in fields(RunConfig)}
    assert len(targets) == len(fields(RunConfig)) + 2
    assert _CONFIG_KEYS["seed"][0] == "rng_seed"
    assert _CONFIG_KEYS["out"][0] == "out_dir"


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
