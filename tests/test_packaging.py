"""Every console script that pyproject.toml declares, and every package
name the benchmark calls, must resolve."""

import importlib
import tomllib
from pathlib import Path

import numpy as np

from csireid import autodiff as ad
from csireid.encoders import EncoderConfig, build_model

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


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
