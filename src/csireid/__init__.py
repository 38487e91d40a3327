"""Wi-Fi CSI person re-identification toolkit.

Pipeline: raw complex CSI -> amplitude/phase features -> sequence encoder
-> unit-norm signature -> cosine retrieval.
"""
