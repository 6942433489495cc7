"""The redesigned ``backend=`` API surface.

Registry resolution, the package-level exports, and the shared ``Probe``
spec that the validation entry points take positionally.
"""

import importlib
from pathlib import Path

import pytest

import repro
from repro.backends import (
    BACKENDS,
    DEFAULT_BACKEND,
    ExecutionBackend,
    InterpreterBackend,
    NumpyBackend,
    get_backend,
)
from repro.experiments.config import RunConfig
from repro.validation import Probe
from repro.validation.golden import golden_check
from repro.validation.probe import PROBE_MESH, PROBE_VECTOR_SIZE

try:
    import tomllib
except ModuleNotFoundError:  # Python 3.10: pytest itself depends on tomli
    import tomli as tomllib


# -- registry ----------------------------------------------------------


def test_both_backends_registered():
    assert set(BACKENDS) == {"interpreter", "numpy"}
    assert DEFAULT_BACKEND == "numpy"


def test_get_backend_resolution():
    assert get_backend(None).name == "numpy"          # default
    assert get_backend("interpreter").name == "interpreter"
    assert get_backend("numpy").name == "numpy"
    be = BACKENDS["interpreter"]
    assert get_backend(be) is be                      # instance passthrough


def test_get_backend_unknown_name_lists_known():
    with pytest.raises(ValueError, match="interpreter"):
        get_backend("fortran")


def test_get_backend_rejects_wrong_type():
    with pytest.raises(TypeError):
        get_backend(42)


def test_backends_satisfy_protocol():
    assert isinstance(InterpreterBackend(), ExecutionBackend)
    assert isinstance(NumpyBackend(), ExecutionBackend)


# -- package exports ---------------------------------------------------


def test_package_exports():
    assert repro.__version__ == "2.0.0"
    for name in ("BACKENDS", "ExecutionBackend", "get_backend", "Probe"):
        assert name in repro.__all__
        assert getattr(repro, name) is not None
    assert repro.get_backend is get_backend
    assert repro.Probe is Probe


def test_distribution_version_is_the_package_version():
    """The version pyproject.toml builds the distribution with resolves
    to ``repro.__version__`` (read the way setuptools reads a
    ``dynamic`` version), so the two cannot drift apart."""
    root = Path(__file__).resolve().parents[2]
    meta = tomllib.loads((root / "pyproject.toml").read_text())
    project = meta["project"]
    if "version" in project:
        declared = project["version"]
    else:
        assert "version" in project["dynamic"]
        attr = meta["tool"]["setuptools"]["dynamic"]["version"]["attr"]
        module, _, name = attr.rpartition(".")
        declared = getattr(importlib.import_module(module), name)
    assert declared == repro.__version__


# -- Probe -------------------------------------------------------------


def test_probe_defaults_match_pinned_probe():
    p = Probe()
    assert p.opt == "vanilla"
    assert p.vector_size == PROBE_VECTOR_SIZE
    assert p.mesh_dims == PROBE_MESH
    assert p.backend == DEFAULT_BACKEND
    assert p.passes is None
    hash(p)  # frozen + hashable: it is the digest cache key


def test_probe_normalizes_sequences():
    p = Probe(mesh_dims=[4, 4, 4], passes=["const-trip-count"])
    assert p.mesh_dims == (4, 4, 4)
    assert p.passes == ("const-trip-count",)


def test_golden_report_records_backend():
    rep = golden_check(Probe(backend="interpreter"))
    assert rep.backend == "interpreter"
    assert rep.to_dict()["backend"] == "interpreter"


# -- config / session / CLI threading ----------------------------------


def test_runconfig_key_stable_for_default_backend():
    # existing disk caches and BENCH baselines key off the old spelling
    assert "-be[" not in RunConfig().key()
    assert RunConfig(backend="interpreter").key().endswith("-be[interpreter]")


def test_runconfig_from_kwargs_accepts_backend():
    cfg = RunConfig.from_kwargs(mesh="tiny", backend="interpreter")
    assert cfg.backend == "interpreter"


def test_session_stamps_backend_on_configs():
    from repro.experiments.runner import Session

    s = Session(mesh_dims=(4, 4, 4), use_disk=False, backend="interpreter")
    assert s.config(opt="vec1").backend == "interpreter"
    # explicit override wins
    assert s.config(opt="vec1", backend="numpy").backend == "numpy"


def test_cli_backend_flag():
    from repro.cli import build_parser

    p = build_parser()
    args = p.parse_args(["remarks", "--backend", "interpreter"])
    assert args.backend == "interpreter"
    args = p.parse_args(["table", "3", "--backend", "interpreter"])
    assert args.backend == "interpreter"
    args = p.parse_args(["chaos"])
    assert args.backend == "numpy"
    with pytest.raises(SystemExit):
        p.parse_args(["remarks", "--backend", "fortran"])
