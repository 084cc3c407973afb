"""The pre-spec entry points are gone and fail loudly, not silently.

The session API (:class:`repro.api.Toolchain` plus the frozen specs) is the
one way in.  The old flat-keyword constructors and helpers were deleted
rather than kept as fallbacks, so a caller still using one must get an
immediate ``TypeError``/``AttributeError``/``ConfigurationError`` instead
of a half-working object.  Each test here tries one old form exactly as
user code did.
"""

import warnings

import pytest

import repro
import repro.api
import repro.metrics
import repro.metrics.performance
from repro.engine.sweep import SweepPoint, build_grid, evaluate_many
from repro.errors import ConfigurationError
from repro.runtime.manager import OverlayRuntime
from repro.service import OverlayService
from repro.specs import OverlaySpec


def test_map_kernel_is_not_exported():
    for module in (repro, repro.api):
        assert not hasattr(module, "map_kernel")
        assert not hasattr(module, "MappingResult")


def test_metrics_helpers_are_not_exported():
    for module in (repro.metrics, repro.metrics.performance):
        assert not hasattr(module, "overlay_for")
        assert not hasattr(module, "evaluate_kernel")


def test_overlay_runtime_rejects_a_variant_name():
    with pytest.raises(ConfigurationError, match="OverlaySpec"):
        OverlayRuntime("v1")


def test_overlay_runtime_rejects_flat_kwargs():
    with pytest.raises(TypeError):
        OverlayRuntime(OverlaySpec("v1"), depth=4)


def test_sweep_point_rejects_flat_kwargs():
    with pytest.raises(TypeError):
        SweepPoint(kernel="gradient", variant="v1", depth=4)


def test_build_grid_rejects_flat_kwargs():
    with pytest.raises(TypeError):
        build_grid(["gradient"], variants=["v1"], num_blocks=4)


def test_service_rejects_shards():
    with pytest.raises(TypeError):
        OverlayService(shards=4)


def test_evaluate_many_rejects_jobs():
    with pytest.raises(TypeError):
        evaluate_many(["gradient"], jobs=2)


def test_deprecation_warnings_fail_the_suite():
    # pyproject.toml turns DeprecationWarning into an error, so a new
    # deprecated path cannot slip in unnoticed.
    with pytest.raises(DeprecationWarning):
        warnings.warn("deprecated", DeprecationWarning)
