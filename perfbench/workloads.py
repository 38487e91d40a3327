"""The ingest, train and identify workloads.

Each is a closed loop with one client: the next operation starts when the
previous one has finished. Operations reach the package only through the
``Api`` they are given, so a traced run sees every call. Correctness checks
run between operations, outside the timed region, and use the package
modules directly so that they add nothing to the trace.

- ingest: offline dataset building from raw captures. ``csi_core`` file I/O
  and ``preprocess`` do all the work, Hampel most of it; ``autodiff`` and
  ``encoders`` do none.
- train: Bi-LSTM training on feature files, so no preprocessing runs. Graph
  building, backward and the recurrent encoder do almost all the work.
- identify: online re-identification with the default Transformer. The
  gallery is enrolled first, then each query goes from a raw capture to a
  ranked gallery. Preprocessing and a different encoder share each query,
  so a gain in one that costs the other shows.
"""

from __future__ import annotations

import os
import traceback
from dataclasses import dataclass
from time import perf_counter

import numpy as np

import corpus
import loss
import retrieval
from csireid import autodiff, csi_core, preprocess
from tests.oracles import hampel_column

BATCH = 8
ENROLL_BATCH = 16
HAMPEL = preprocess.HampelConfig()
LR = 3e-3
SETUP_TRAIN_STEPS = 4
# the gallery is enrolled this many times over, to time enough B=16 batches
ENROLL_PASSES = 10
# a run stops early once this many operations or checks have failed
MAX_FAILURES = 50
LOSS_WINDOW = 5
UNIT_NORM_TOL = 1e-6
# weights pass through f32 in a checkpoint; relative error 2**-24 per weight
RELOAD_TOL = 1e-5


@dataclass(frozen=True)
class Sizes:
    subjects: int = 12
    ingest_captures: int = 13
    train_per_subject: int = 6
    heldout_per_subject: int = 6
    quality_steps: int = 50
    gallery_per_subject: int = 4
    queries_per_subject: int = 3
    setups: int = 3
    # below the lowest rank1 seen over 20 seeds (0.69 train, 0.94 identify)
    train_rank1_floor: float = 0.6
    identify_rank1_floor: float = 0.8


FULL = Sizes()
TINY = Sizes(
    subjects=4,
    ingest_captures=2,
    train_per_subject=2,
    heldout_per_subject=2,
    quality_steps=2,
    gallery_per_subject=2,
    queries_per_subject=1,
    setups=1,
    train_rank1_floor=0.0,
    identify_rank1_floor=0.0,
)


@dataclass
class Result:
    """What a run produced: the kind of operation whose latency counts
    (``op``), ``items_per_s`` (captures, training samples or enrolled
    signatures per busy second), and named quality and side figures."""

    op: str
    items_per_s: float
    extra: dict


class Clock:
    """Times operations by kind and counts attempts and failures.

    ``spent`` is the time of every operation, failed ones included, so a
    loop bounded by it ends even when every operation raises.
    """

    def __init__(self, tracer):
        self.tracer = tracer
        self.samples: dict[str, list[float]] = {}
        self.spent = 0.0
        self.attempted = 0
        self.failures: list[str] = []

    def op(self, kind: str, fn, *args):
        """Run one timed operation; returns its result, or None if it raised."""
        self.attempted += 1
        with self.tracer.op(f"op.{kind}"):
            t0 = perf_counter()
            try:
                out = fn(*args)
            except Exception:  # an operation that raises is counted, not fatal
                self.failures.append(f"{kind}: {traceback.format_exc(limit=3)}")
                out = None
            dt = perf_counter() - t0
        self.spent += dt
        if out is not None:
            self.samples.setdefault(kind, []).append(dt)
        return out

    @property
    def broken(self) -> bool:
        return len(self.failures) >= MAX_FAILURES

    def busy(self, kind: str) -> float:
        return float(sum(self.samples.get(kind, ())))

    def rate(self, count: int, kind: str) -> float:
        """``count`` per busy second of ``kind``; NaN if none succeeded."""
        busy = self.busy(kind)
        return count / busy if busy > 0 else float("nan")

    def check(self, ok: bool, what: str) -> None:
        """A run-level check: one attempt, failed unless ``ok``."""
        self.attempted += 1
        self.fail_if(not ok, what)

    def fail_if(self, bad: bool, what: str) -> None:
        if bad:
            self.failures.append(what)


def _labels(manifest, split):
    entries = [e for e in manifest.entries if e.split == split]
    return [e.path for e in entries], np.array([e.subject_id for e in entries])


def _unit_norm_ok(sigs: np.ndarray) -> bool:
    norms = np.linalg.norm(sigs, axis=1)
    return bool(np.all(np.isfinite(sigs)) and np.all(np.abs(norms - 1.0) <= UNIT_NORM_TOL))


def _pairs(rng, labels) -> list[int]:
    """Indices of BATCH // 2 random subjects with two samples each."""
    subjects = rng.choice(np.unique(labels), BATCH // 2, replace=False)
    return [int(j) for s in subjects for j in rng.choice(np.flatnonzero(labels == s), 2, replace=False)]


def _graph_nodes(root) -> int:
    """Nodes reachable from ``root`` through the autodiff parent links."""
    seen = {id(root)}
    stack = [root]
    while stack:
        for p in stack.pop()._parents:
            if id(p) not in seen:
                seen.add(id(p))
                stack.append(p)
    return len(seen)


class Workload:
    name = ""

    def __init__(self, api, tracer, clock: Clock, root: str, seed: int, sizes: Sizes):
        self.api = api
        self.tracer = tracer
        self.clock = clock
        self.root = root
        self.seed = seed
        self.sizes = sizes
        self.manifest_path = os.path.join(root, "manifest.csv")
        self.warmup_s: list[float] = []
        self.enrolled = 0
        self.graph_nodes = 0
        self.rank_at_k = {1: float("nan")}
        self.mean_ap = float("nan")

    def path(self, rel: str) -> str:
        return os.path.join(self.root, rel)

    def make_corpus(self) -> None:
        raise NotImplementedError

    def setup(self) -> None:
        raise NotImplementedError

    def run(self, seconds: float) -> None:
        raise NotImplementedError

    def result(self) -> Result:
        raise NotImplementedError

    def finish(self) -> None:
        """Scores quality and runs the run-level checks after the timed loop."""

    def _warm(self, fn, *args):
        t0 = perf_counter()
        out = fn(*args)
        self.warmup_s.append(perf_counter() - t0)
        return out


class Ingest(Workload):
    """Reads a manifest of raw captures and writes cleaned features back."""

    name = "ingest"

    def make_corpus(self) -> None:
        s = self.sizes
        pop = corpus.Population(self.seed, s.subjects)
        items = corpus.plan(s.subjects, -(-s.ingest_captures // s.subjects), "train", "cap")
        items = items[: s.ingest_captures]
        corpus.write_captures(self.api, pop, items, self.root)
        self.malformed = set()
        for i, kind in enumerate(corpus.MALFORMED_KINDS):
            src = items[i % len(items)]
            bad = corpus.Item(f"bad_{kind}.csb", src.subject, src.scenario, "test")
            corpus.corrupt(self.path(src.name), self.path(bad.name), kind)
            self.malformed.add(bad.name)
            # spread the malformed files through the manifest
            items.insert((i + 1) * len(items) // (len(corpus.MALFORMED_KINDS) + 1), bad)
        corpus.write_manifest(self.api, items, self.manifest_path)
        os.makedirs(self.path("out"), exist_ok=True)

    def setup(self) -> None:
        self.entries = self.api.core.load_manifest(self.manifest_path).entries
        first = next(e for e in self.entries if e.path not in self.malformed)
        self._warm(self._ingest, first)

    def _ingest(self, entry):
        core, pre = self.api.core, self.api.pre
        rec = core.read_sample(self.path(entry.path))
        amp = pre.amplitude_from_complex(rec.payload)
        clean = pre.hampel_filter(amp)
        feat = pre.standardize_features(pre.resample_packets(clean, corpus.FEATURE_PKT))
        phase = pre.sanitize_phase(pre.phase_from_complex(rec.payload), n_sub=rec.dims[2])
        rx, tx, sub, _ = rec.dims
        stem = self.path(os.path.join("out", entry.path[: -len(".csb")]))
        core.write_sample(
            core.SampleRecord(
                rec.subject_id, rec.scenario, feat, core.PayloadKind.AMPLITUDE,
                dims=(rx, tx, sub, corpus.FEATURE_PKT),
            ),
            stem + ".amp.csb",
        )
        core.write_sample(
            core.SampleRecord(rec.subject_id, rec.scenario, phase, core.PayloadKind.PHASE, dims=rec.dims),
            stem + ".phase.csb",
        )
        return amp, clean, phase, rec.dims

    def _reject(self, entry) -> bool:
        """True when reading a malformed file raises the declared error."""
        try:
            self.api.core.read_sample(self.path(entry.path))
        except self.api.core.CsbFormatError:
            return True
        return False

    def run(self, seconds: float) -> None:
        rng = np.random.default_rng([self.seed, 0x48414D50])
        n = len(self.entries)
        i = 0
        while not self.clock.broken and (i < n or self.clock.spent < seconds):
            entry = self.entries[i % n]
            i += 1
            if entry.path in self.malformed:
                out = self.clock.op("reject", self._reject, entry)
                self.clock.fail_if(out is False, f"malformed {entry.path} was accepted")
                continue
            out = self.clock.op("capture", self._ingest, entry)
            if out is not None and i <= n:
                self.clock.fail_if(*self._check(entry, out, rng))

    def _check(self, entry, out, rng):
        """Hampel against the oracle on two columns, and zero endpoint slopes."""
        amp, clean, phase, dims = out
        problems = []
        for col in rng.choice(amp.n_feat, 2, replace=False):
            ref = hampel_column(amp.data[:, col], HAMPEL.window_w, HAMPEL.xi)
            if not np.array_equal(clean.data[:, col], ref):
                problems.append(f"hampel column {col} differs from the oracle")
        rows = phase.data.reshape(phase.n_pkt, -1, dims[2])
        if not np.array_equal(rows[..., -1], rows[..., 0]):
            problems.append("sanitized rows keep an endpoint slope")
        return bool(problems), f"{entry.path}: {'; '.join(problems)}"

    def result(self) -> Result:
        captures = len(self.clock.samples.get("capture", ()))
        busy = self.clock.busy("capture") + self.clock.busy("reject")
        return Result("capture", captures / busy if busy > 0 else float("nan"), {})


class Train(Workload):
    """Trains the Bi-LSTM with the in-batch loss for a fixed number of steps.

    Quality is scored on the weights after ``quality_steps`` steps, so it
    does not depend on how many steps fit in the run; later steps only add
    timing samples.
    """

    name = "train"

    def make_corpus(self) -> None:
        s = self.sizes
        pop = corpus.Population(self.seed, s.subjects)
        items = corpus.plan(s.subjects, s.train_per_subject, "train", "tr")
        items += corpus.plan(s.subjects, s.heldout_per_subject, "test", "te")
        corpus.write_features(self.api, pop, items, self.root)
        corpus.write_manifest(self.api, items, self.manifest_path)

    def setup(self) -> None:
        ad, aug, enc = self.api.ad, self.api.aug, self.api.enc
        manifest = self.api.core.load_manifest(self.manifest_path)
        self.train_paths, self.train_labels = _labels(manifest, "train")
        self.test_paths, self.test_labels = _labels(manifest, "test")
        self.model = enc.build_model(enc.EncoderConfig(arch="bilstm"), corpus.N_FEAT, self.seed)
        self.adam = ad.AdamState(lr=LR)
        self.sched = ad.StepDecaySchedule(base_lr=LR, gamma=0.9, step_epochs=2)
        self.policy = aug.AugmentPolicy(rng_seed=self.seed)
        self.rng = np.random.default_rng([self.seed, 0x42415443])
        self.steps_per_epoch = max(1, len(self.train_paths) // BATCH)
        self.losses: list[float] = []
        self.snapshot = None
        self._warm(self._step)

    def _step(self) -> float:
        ad, aug = self.api.ad, self.api.aug
        idx = _pairs(self.rng, self.train_labels)
        seqs = []
        for i in idx:
            rec = self.api.core.read_sample(self.path(self.train_paths[i]))
            sample_rng = aug.sample_rng(self.policy, len(self.losses) * BATCH + len(seqs))
            seqs.append(aug.apply_policy(rec.payload, self.policy, sample_rng))
        x = ad.constant(np.stack([q.data for q in seqs]))
        sigs = self.model.signatures(x, training=True, rng=self.rng)
        with self.tracer.span("bench.loss"):
            value = loss.in_batch_softmax_loss(ad, sigs, self.train_labels[idx])
        if not self.losses:
            self.graph_nodes = _graph_nodes(value)
        ad.backward(value)
        self.adam.lr = ad.schedule_lr(self.sched, len(self.losses) // self.steps_per_epoch)
        ad.adam_step(self.model.params, self.adam)
        self.losses.append(float(value.values))
        return self.losses[-1]

    def run(self, seconds: float) -> None:
        q = self.sizes.quality_steps
        while not self.clock.broken and (len(self.losses) < q or self.clock.spent < seconds):
            out = self.clock.op("step", self._step)
            if out is None:
                continue
            self.clock.fail_if(not np.isfinite(out), f"step {len(self.losses)}: loss {out}")
            if len(self.losses) == q:
                self.snapshot = self.model.state_dict()

    def finish(self) -> None:
        ad = self.api.ad
        q = self.sizes.quality_steps
        ad.write_tensor_file(self.path("bilstm.ckpt"), self.snapshot)
        self.model.load_state_dict(self.snapshot)
        sigs = []
        for b in range(0, len(self.test_paths), ENROLL_BATCH):
            x = np.stack([self.api.core.read_sample(self.path(p)).payload.data
                          for p in self.test_paths[b : b + ENROLL_BATCH]])
            sigs.append(self.model.signatures(ad.constant(x)).values)
        sigs = np.concatenate(sigs)
        with self.tracer.span("bench.retrieval"):
            self.rank_at_k, self.mean_ap = retrieval.leave_one_out(sigs, self.test_labels)
        w = min(LOSS_WINDOW, q // 2) or 1
        first, last = np.mean(self.losses[:w]), np.mean(self.losses[q - w : q])
        self.clock.check(bool(last < first), f"loss did not fall: {first:.4f} -> {last:.4f}")
        self.clock.check(
            self.rank_at_k[1] >= self.sizes.train_rank1_floor,
            f"rank1 {self.rank_at_k[1]:.4f} below floor {self.sizes.train_rank1_floor}",
        )

    def result(self) -> Result:
        steps = len(self.clock.samples.get("step", ()))
        quality = {"rank1": self.rank_at_k[1], "mAP": self.mean_ap}
        return Result("step", self.clock.rate(BATCH * steps, "step"), quality)


class Identify(Workload):
    """Enrolls a gallery, then ranks it for raw query captures."""

    name = "identify"

    def make_corpus(self) -> None:
        s = self.sizes
        pop = corpus.Population(self.seed, s.subjects)
        gallery = corpus.plan(s.subjects, s.gallery_per_subject, "train", "gal")
        queries = corpus.plan(s.subjects, s.queries_per_subject, "test", "q")
        corpus.write_features(self.api, pop, gallery, self.root)
        corpus.write_captures(self.api, pop, queries, self.root)
        corpus.write_manifest(self.api, gallery + queries, self.manifest_path)

    def setup(self) -> None:
        ad, enc = self.api.ad, self.api.enc
        manifest = self.api.core.load_manifest(self.manifest_path)
        self.gallery_paths, self.gallery_labels = _labels(manifest, "train")
        self.query_paths, self.query_labels = _labels(manifest, "test")
        cfg = enc.EncoderConfig()
        trained = enc.build_model(cfg, corpus.N_FEAT, self.seed)
        adam = ad.AdamState(lr=LR)
        rng = np.random.default_rng([self.seed, 0x49444E54])
        for _ in range(SETUP_TRAIN_STEPS):
            idx = _pairs(rng, self.gallery_labels)
            x = ad.constant(np.stack([
                self.api.core.read_sample(self.path(self.gallery_paths[j])).payload.data for j in idx
            ]))
            sigs = trained.signatures(x, training=True, rng=rng)
            with self.tracer.span("bench.loss"):
                value = loss.in_batch_softmax_loss(ad, sigs, self.gallery_labels[idx])
            if not self.graph_nodes:
                self.graph_nodes = _graph_nodes(value)
            ad.backward(value)
            ad.adam_step(trained.params, adam)
        ckpt = self.path("transformer.ckpt")
        ad.write_tensor_file(ckpt, trained.state_dict())
        self.model = enc.build_model(cfg, corpus.N_FEAT, self.seed + 1)
        self.model.load_state_dict(ad.read_tensor_file(ckpt))
        n = len(self.gallery_paths)
        self.gallery = np.zeros((n, cfg.signature_dim_s))
        self.batches = [range(b, min(b + ENROLL_BATCH, n)) for b in range(0, n, ENROLL_BATCH)]
        self.trained = getattr(trained, "_model", trained)
        self._warm(self._enroll, self.batches[0])
        self._warm(self._query, 0)
        self.query_sigs: list[np.ndarray] = []

    def _enroll(self, rows) -> np.ndarray:
        ad = self.api.ad
        x = ad.constant(np.stack([
            self.api.core.read_sample(self.path(self.gallery_paths[j])).payload.data for j in rows
        ]))
        self.gallery[rows.start : rows.stop] = self.model.signatures(x).values
        return self.gallery[rows.start : rows.stop]

    def _query(self, j: int):
        pre, ad = self.api.pre, self.api.ad
        rec = self.api.core.read_sample(self.path(self.query_paths[j]))
        clean = pre.hampel_filter(pre.amplitude_from_complex(rec.payload))
        seq = pre.standardize_features(pre.resample_packets(clean, corpus.FEATURE_PKT))
        sig = self.model.signatures(ad.constant(seq.data[None])).values[0]
        with self.tracer.span("bench.retrieval"):
            best = self.gallery_labels[np.argsort(-(self.gallery @ sig), kind="stable")[0]]
        return sig, best

    def run(self, seconds: float) -> None:
        """ENROLL_PASSES passes over the gallery, then queries until the run
        has taken ``seconds`` and every query has been served once."""
        nb, nq = len(self.batches), len(self.query_paths)
        for e in range(ENROLL_PASSES * nb):
            if self.clock.broken:
                return
            sigs = self.clock.op("enroll", self._enroll, self.batches[e % nb])
            if sigs is not None:
                self.enrolled += len(sigs)
                self.clock.fail_if(not _unit_norm_ok(sigs), f"enroll batch {e}: signatures not unit-norm")
        q = 0
        while not self.clock.broken and (q < nq or self.clock.spent < seconds):
            out = self.clock.op("query", self._query, q % nq)
            if out is not None:
                self.clock.fail_if(not _unit_norm_ok(out[0][None]), f"query {q}: signature not unit-norm")
                if q < nq:
                    self.query_sigs.append(out[0])
            q += 1

    def finish(self) -> None:
        with self.tracer.span("bench.retrieval"):
            self.rank_at_k, self.mean_ap = retrieval.query_gallery(
                np.array(self.query_sigs), self.query_labels, self.gallery, self.gallery_labels
            )
        # the model as trained, before its checkpoint round trip
        rows = self.batches[0]
        x = np.stack([csi_core.read_sample(self.path(self.gallery_paths[j])).payload.data for j in rows])
        ref = self.trained.signatures(autodiff.constant(x)).values
        gap = float(np.max(np.abs(ref - self.gallery[rows.start : rows.stop])))
        self.clock.check(gap <= RELOAD_TOL, f"reloaded checkpoint moved signatures by {gap:.3g}")
        self.clock.check(
            self.rank_at_k[1] >= self.sizes.identify_rank1_floor,
            f"rank1 {self.rank_at_k[1]:.4f} below floor {self.sizes.identify_rank1_floor}",
        )

    def result(self) -> Result:
        queries = len(self.clock.samples.get("query", ()))
        extra = {
            "rank1": self.rank_at_k[1],
            "mAP": self.mean_ap,
            "queries_per_s": self.clock.rate(queries, "query"),
        }
        return Result("query", self.clock.rate(self.enrolled, "enroll"), extra)
