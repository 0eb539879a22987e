"""The package's public surface: one list of names, kept in the submodules."""

import dataclasses
import inspect

import supou
from supou import descriptive, errors, gmm, moments, params, simulate

SUBMODULES = (errors, params, moments, simulate, descriptive, gmm)

# second copies and test-only names that were removed from the program
REMOVED = (
    "moment_function_supou",
    "moment_function_int",
    "moment_function_sv",
    "SeriesSummary",
    "series_summary",
    "levy_moments",
    "has_long_memory",
    "sample_moments",
)

# parameters that only tests set, removed from the program
REMOVED_PARAMETERS = (
    (simulate.sample_jump_stream, "jump_sampler"),
    (simulate.simulate_path, "jump_sampler"),
    (moments.gamma_mix_integral, "rel_tol"),
    (moments.quadrature_moments, "rel_tol"),
    (gmm.estimate_weighting, "ridge_scale"),
)


def test_top_level_all_is_the_union_of_the_submodules():
    union = [name for module in SUBMODULES for name in module.__all__]
    assert len(union) == len(set(union))
    assert sorted(supou.__all__) == sorted(union)
    for module in SUBMODULES:
        for name in module.__all__:
            assert getattr(supou, name) is getattr(module, name)


def test_removed_names_are_gone():
    for name in REMOVED:
        assert not hasattr(supou, name)
    assert not hasattr(supou.PathSample, "write_csv")
    assert not hasattr(supou.ParamVector, "from_array")
    assert "weighting" not in {f.name for f in dataclasses.fields(supou.GmmResult)}
    assert not hasattr(simulate, "JumpSampler")
    assert not hasattr(simulate.JumpStream, "truncated")
    for fn, parameter in REMOVED_PARAMETERS:
        assert parameter not in inspect.signature(fn).parameters
