"""Every console script that pyproject.toml declares, and every package
name the benchmark calls, must resolve; every public package name must have
a caller outside the tests; the pytest settings it declares must report
every test."""

import ast
import dataclasses
import importlib
import subprocess
import sys
import tomllib
from pathlib import Path

import numpy as np

from csireid import augment as aug
from csireid import autodiff as ad
from csireid import csi_core as core
from csireid import preprocess as pre
from csireid.encoders import EncoderConfig, build_model

ROOT = Path(__file__).resolve().parents[1]
PYPROJECT = ROOT / "pyproject.toml"


def test_declared_scripts_are_importable_callables():
    with PYPROJECT.open("rb") as fh:
        scripts = tomllib.load(fh)["project"].get("scripts", {})
    for name, target in scripts.items():
        module, _, attr = target.partition(":")
        fn = getattr(importlib.import_module(module), attr)
        assert callable(fn), f"script {name!r} target {target!r} is not callable"


# Every package name the benchmark under perfbench/ calls. The benchmark is
# kept unchanged between releases, so a rename here must fail this test
# rather than the next benchmark run.
BENCHMARK_SURFACE = {
    "csireid.csi_core": [
        "ComplexCsiTensor", "CsbFormatError", "FeatureSequence", "Manifest",
        "ManifestEntry", "PayloadKind", "SampleRecord", "Scenario",
        "load_manifest", "read_sample", "save_manifest", "write_sample",
    ],
    "csireid.preprocess": [
        "amplitude_from_complex", "hampel_filter", "phase_from_complex",
        "sanitize_phase", "resample_packets", "standardize_features", "HampelConfig",
    ],
    "csireid.augment": ["AugmentPolicy", "apply_policy", "sample_rng"],
    "csireid.autodiff": [
        "constant", "parameter", "add", "mul", "matmul", "transpose", "mean_axis",
        "log", "softmax_axis", "l2_normalize_axis", "backward", "grad_check",
        "AdamState", "adam_step", "StepDecaySchedule", "schedule_lr",
        "read_tensor_file", "write_tensor_file",
    ],
    "csireid.encoders": ["EncoderConfig", "build_model"],
    "tests.oracles": ["hampel_column", "retrieval_metrics"],
}


def test_benchmark_package_surface_exists():
    for module, names in BENCHMARK_SURFACE.items():
        mod = importlib.import_module(module)
        for name in names:
            assert callable(getattr(mod, name, None)), f"{module}.{name} is gone"


def test_benchmark_model_surface():
    model = build_model(EncoderConfig(arch="bilstm", hidden_d=4, signature_dim_s=3), 2, 0)
    # adam_step receives the list itself, and the graph walk reads _parents
    assert isinstance(model.params, list)
    assert model.params and all(isinstance(p, ad.DiffTensor) for p in model.params)
    assert "_parents" in ad.DiffTensor.__slots__
    x = ad.constant(np.random.default_rng(0).normal(size=(1, 3, 2)))
    sig = model.signatures(x, training=True, rng=np.random.default_rng(0))
    assert sig.values.shape == (1, 3)
    assert model.signatures(x).values.shape == (1, 3)
    model.load_state_dict(model.state_dict())


def test_benchmark_keywords_accepted():
    # exactly the keywords perfbench/ passes
    assert ad.AdamState(lr=1e-3).lr == 1e-3
    assert aug.AugmentPolicy(rng_seed=3).rng_seed == 3
    sched = ad.StepDecaySchedule(base_lr=1e-3, gamma=0.9, step_epochs=2)
    assert ad.schedule_lr(sched, 2) == 1e-3 * 0.9
    assert EncoderConfig(arch="bilstm").arch == "bilstm"
    hampel = pre.HampelConfig()
    assert (hampel.window_w, hampel.xi) == (5, 3.0)
    seq = core.FeatureSequence(2, 4, np.arange(8.0).reshape(2, 4))
    assert pre.sanitize_phase(seq, n_sub=2).data.shape == (2, 4)
    record = core.SampleRecord(
        0, core.Scenario.TSHIRT, seq, core.PayloadKind.AMPLITUDE, dims=(1, 1, 4, 2)
    )
    assert record.dims == (1, 1, 4, 2)
    x = ad.parameter(np.array([[0.5, -1.0]]))
    assert ad.grad_check(lambda t: ad.mean_axis(ad.mean_axis(t, axis=1), axis=0), x, eps=1e-6) < 1e-9


# The settable fields of each config. Adding a knob means editing this on
# purpose; removing one the benchmark passes fails the test above.
CONFIG_FIELDS = {
    ad.AdamState: ("lr",),
    aug.AugmentPolicy: ("rng_seed",),
    pre.HampelConfig: (),  # fixed at HAMPEL_WINDOW and HAMPEL_XI
    ad.StepDecaySchedule: ("base_lr", "gamma", "step_epochs"),
    EncoderConfig: ("arch", "layers_l", "hidden_d", "heads", "dropout_pd", "signature_dim_s"),
}


def test_config_fields_pinned():
    for cls, names in CONFIG_FIELDS.items():
        assert tuple(f.name for f in dataclasses.fields(cls) if f.init) == names, cls.__name__


def _last_name(node) -> str | None:
    """``b`` for ``b``, ``a.b`` and ``f().b``: the name an attribute hangs on."""
    if isinstance(node, ast.Name):
        return node.id
    return node.attr if isinstance(node, ast.Attribute) else None


def uncalled_public_names(src: Path, bench: Path) -> list[str]:
    """``module.name`` of each public function or class in the package ``src``
    that neither another package module nor the benchmark ``bench`` uses.

    The package's ``__init__.py`` is no caller: a re-export there would
    count as a use of every name it imports.
    """
    trees = {p: ast.parse(p.read_text(encoding="utf-8")) for p in [
        *sorted(src.glob("*.py")), *sorted(bench.glob("*.py"))]}
    public = {
        (p.stem, node.name)
        for p, tree in trees.items() if p.parent == src
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
    }
    trees.pop(src / "__init__.py", None)
    used = set()
    aliases: dict[str, set[str]] = {}  # a local name -> the package modules it stands for
    for p, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("csireid."):
                used |= {(node.module.split(".")[1], a.name) for a in node.names}
            elif isinstance(node, ast.ImportFrom) and node.module == "csireid":
                for a in node.names:
                    aliases.setdefault(a.asname or a.name, set()).add(a.name)
            elif isinstance(node, ast.Import):
                for a in node.names:
                    if a.name.startswith("csireid."):
                        module = a.name.split(".")[1]
                        aliases.setdefault(a.asname or module, set()).add(module)
            elif isinstance(node, ast.Name) and p.parent == src:
                used.add((p.stem, node.id))
    # the benchmark's Api names each module by a dict key (spans.MODULES),
    # and its workloads and loss reach the module through that name
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Dict):
                for key, value in zip(node.keys, node.values):
                    first = value.elts[0] if isinstance(value, ast.Tuple) and value.elts else None
                    if isinstance(key, ast.Constant) and _last_name(first) in aliases:
                        aliases.setdefault(key.value, set()).update(aliases[_last_name(first)])
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                used |= {(module, node.attr) for module in aliases.get(_last_name(node.value), ())}
    return sorted(f"{m}.{n}" for m, n in public - used)


def test_public_names_have_a_non_test_caller():
    # a public function or class that only tests call belongs in the tests
    assert uncalled_public_names(ROOT / "src" / "csireid", ROOT / "perfbench") == []


def test_package_init_is_no_caller(tmp_path):
    src, bench = tmp_path / "csireid", tmp_path / "bench"
    src.mkdir()
    bench.mkdir()
    (src / "__init__.py").write_text("from csireid.core import Kept, Dropped\n")
    (src / "core.py").write_text("class Kept: ...\n\nclass Dropped: ...\n")
    (bench / "run.py").write_text("from csireid.core import Kept\n")
    assert uncalled_public_names(src, bench) == ["core.Dropped"]


def test_package_init_imports_nothing():
    # no second entry point: every caller imports a name from its module
    tree = ast.parse((ROOT / "src" / "csireid" / "__init__.py").read_text(encoding="utf-8"))
    assert [type(node).__name__ for node in tree.body] == ["Expr"]  # the docstring


FAILING_HYPOTHESIS_FILE = """
from hypothesis import given, strategies as st

@given(st.integers())
def test_fails(n):
    assert n < 0

def test_passes():
    pass
"""


def test_failing_hypothesis_test_does_not_stop_the_session(tmp_path):
    # with warnings as errors, a warning raised in Hypothesis's report hook
    # once became INTERNALERROR and the tests after the failure never ran
    (tmp_path / "test_h.py").write_text(FAILING_HYPOTHESIS_FILE)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(PYPROJECT), "--rootdir", str(tmp_path), str(tmp_path / "test_h.py")],
        capture_output=True, text=True, timeout=120,
    )
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    assert "1 failed, 1 passed" in proc.stdout, proc.stdout[-2000:]
