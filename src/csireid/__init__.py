"""Wi-Fi CSI person re-identification toolkit.

Pipeline: raw complex CSI -> amplitude/phase features -> sequence encoder
-> unit-norm signature -> cosine retrieval.
"""

from csireid.csi_core import (
    ComplexCsiTensor,
    FeatureSequence,
    Manifest,
    ManifestEntry,
    PayloadKind,
    SampleRecord,
    Scenario,
)

__version__ = "0.1.0"

__all__ = [
    "ComplexCsiTensor",
    "FeatureSequence",
    "Manifest",
    "ManifestEntry",
    "PayloadKind",
    "SampleRecord",
    "Scenario",
    "__version__",
]
