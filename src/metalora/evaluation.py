"""Identity-similarity metrics over pluggable embedders.

The headline metric scores each generated image against held-out images of
the same identity, never against the reference used for personalization;
this defeats the score inflation that reference-copying generators enjoy
under the conventional protocol. All scores are reported x100. Embedders
and generators are plain callables, so real models can be plugged in behind
the same file-exchange formats the CLI speaks.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, ManifestError, MetaLoraError, NumericError
from .numerics import make_rng


_TINY, _HUGE = np.finfo(np.float64).tiny, np.finfo(np.float64).max


def checked_norm(v: np.ndarray, what: str) -> float:
    """``sqrt(v . v)``, np.linalg.norm's formula for a real vector. NumericError, naming
    ``what``, refuses a squared norm that is zero, nan, subnormal or not finite."""
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        sq = v.dot(v)
    if not _TINY <= sq <= _HUGE:
        fault = ("is zero" if not v.any() else "underflows" if sq < _TINY
                 else "overflows" if sq > _HUGE else "is nan")
        raise NumericError(f"{what}'s squared norm {fault} ({sq})")
    return math.sqrt(sq)


def cosine(a: np.ndarray, b: np.ndarray) -> float:
    a = np.asarray(a, dtype=np.float64).ravel()
    b = np.asarray(b, dtype=np.float64).ravel()
    if a.shape != b.shape:
        raise DimensionError("cosine", a.shape, b.shape)
    na, nb = checked_norm(a, "cosine: an input"), checked_norm(b, "cosine: an input")
    return float(np.dot(a, b) / (na * nb))


@dataclass
class IdentityEntry:
    identity: str
    reference: np.ndarray
    tests: list[np.ndarray]

    def __post_init__(self):
        if not self.tests:
            raise ManifestError(f"identity {self.identity!r} has no test items "
                                "after excluding the reference")
        if not all(v.ndim == 1 and np.isfinite(v).all() for v in (self.reference, *self.tests)):
            raise ManifestError(f"identity {self.identity!r} has a vector not 1-d and finite")


@dataclass
class EvalManifest:
    identities: list[IdentityEntry]
    prompts: list[str]

    def __post_init__(self):
        if not self.identities:
            raise ManifestError("manifest has no identities")
        if not self.prompts:
            raise ManifestError("manifest has no prompts")
        # a repeat, or a "||" (pair_key's separator), would make two pairs one
        for what, names in (("identity id", [e.identity for e in self.identities]),
                            ("prompt", self.prompts)):
            for name in names:
                if not isinstance(name, str) or "||" in name:
                    raise ManifestError(f"manifest {what} {name!r} is not a string without '||'")
            if len(set(names)) < len(names):
                repeat = next(n for i, n in enumerate(names) if n in names[:i])
                raise ManifestError(f"manifest repeats {what} {repeat!r}")
        sizes = {v.size for e in self.identities for v in (e.reference, *e.tests)}
        if len(sizes) > 1 or 0 in sizes:
            raise ManifestError(f"manifest vectors need one nonzero length, not {sorted(sizes)}")

    @classmethod
    def from_json(cls, doc: dict) -> "EvalManifest":
        """The manifest of a parsed JSON document; a missing or ill-typed
        field raises :class:`ManifestError`."""
        try:
            if not all(type(v) is list for v in (doc["identities"], doc["prompts"],
                                                 *(e["tests"] for e in doc["identities"]))):
                raise ValueError("identities, prompts and each identity's tests are JSON lists")
            idents = [IdentityEntry(identity=str(e["id"]),
                                    reference=np.asarray(e["reference"], dtype=np.float64),
                                    tests=[np.asarray(t, dtype=np.float64) for t in e["tests"]])
                      for e in doc["identities"]]
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ManifestError(f"malformed manifest ({type(exc).__name__}: {exc})") from exc
        return cls(identities=idents, prompts=doc["prompts"])


def pair_key(identity: str, prompt: str) -> str:
    """An (identity, prompt) pair's key in the ``--generated`` file and the report."""
    return f"{identity}||{prompt}"


@dataclass
class MetricResult:
    score: float               # x100
    table: dict[tuple[str, str], float]  # (identity, prompt) -> mean similarity
    failures: int


class ToyEmbedder:
    """Deterministic stand-in embedder: a seeded random projection of the
    latent, normalized to unit length."""

    def __init__(self, in_dim: int, out_dim: int = 16, *, seed: int):
        self.proj = make_rng(seed).normal(0.0, 1.0 / np.sqrt(in_dim), size=(out_dim, in_dim))

    def __call__(self, vec: np.ndarray) -> np.ndarray:
        with np.errstate(over="ignore", invalid="ignore"):  # checked_norm refuses it
            e = self.proj @ np.asarray(vec, dtype=np.float64).ravel()
        return e / checked_norm(e, "toy embedder: a projection")


# each protocol's targets of an identity, as (record, vector) pairs
_TARGETS = {"robust": lambda e: [(f"test item {k}", t) for k, t in enumerate(e.tests)],
            "conventional": lambda e: [("reference", e.reference)]}


def _score_identities(manifest: EvalManifest, generator, embedder,
                      *protocols) -> list[MetricResult]:
    """One :class:`MetricResult` per named protocol, from one generation and one embedding
    per pair; a protocol scores a pair as the mean cosine with its targets' embeddings."""
    tables: list[dict[tuple[str, str], float]] = [{} for _ in protocols]
    failures = 0

    def embed(vec, entry, what):  # an embedder's NumericError names its record
        try:
            return embedder(vec)
        except NumericError as exc:
            raise NumericError(f"identity {entry.identity!r}, {what}: {exc}") from exc

    for entry in sorted(manifest.identities, key=lambda e: e.identity):
        targets = [[embed(v, entry, what) for what, v in _TARGETS[p](entry)] for p in protocols]
        for prompt in manifest.prompts:
            try:
                generated = generator(entry.reference, prompt)
            except Exception:  # generator crash: exclude, never score 0
                failures += 1
                continue
            g_emb = embed(generated, entry, f"generated item {pair_key(entry.identity, prompt)!r}")
            for table, embs in zip(tables, targets):
                table[(entry.identity, prompt)] = float(np.mean([cosine(g_emb, t)
                                                                 for t in embs]))
    if not tables[0]:
        raise MetaLoraError("all generations failed; nothing to score")
    # fixed sorted reduction order so permuting inputs cannot change the sum
    return [MetricResult(score=100.0 * float(np.mean([table[k] for k in sorted(table)])),
                         table=table, failures=failures) for table in tables]


def r_facesim(manifest: EvalManifest, generator, embedder) -> MetricResult:
    """Reference-excluding similarity: each generated image is compared to
    the held-out test images of its identity and the cosines are averaged.

    ``generator(reference, prompt)`` must return a generated item (the
    reference conditions or fine-tunes the underlying model).
    """
    return _score_identities(manifest, generator, embedder, "robust")[0]


def facesim_conventional(manifest: EvalManifest, generator, embedder) -> MetricResult:
    """Conventional protocol: compares against the reference itself, which a
    pose-copying generator can saturate."""
    return _score_identities(manifest, generator, embedder, "conventional")[0]


def facesim_scores(manifest: EvalManifest, generator, embedder) -> tuple[MetricResult, ...]:
    """(:func:`r_facesim`, :func:`facesim_conventional`) from one generation and
    one embedding per pair, so both score the same pairs and the same items."""
    return tuple(_score_identities(manifest, generator, embedder, "robust", "conventional"))


def discrepancy_report(facesim: float, r_facesim_score: float) -> float:
    """Relative difference (%), rounded to 0.1, of the robust vs conventional
    score, taken against ``|facesim|``: negative values flag inflation under the
    conventional protocol, whatever the sign of FaceSim."""
    if facesim == 0:
        raise NumericError("discrepancy_report: facesim is zero")
    return round(100.0 * (r_facesim_score - facesim) / abs(facesim), 1)


def read_embeddings_jsonl(path, dim: int | None = None) -> dict[str, np.ndarray]:
    """Embedding-exchange format: one {"id": ..., "vector": [...]} per line, the
    vector ``dim`` (if given) finite numbers and the id, as a string, on no
    other line; :class:`ManifestError` names a bad line (and a repeated id's
    first line)."""
    out: dict[str, np.ndarray] = {}
    line_of: dict[str, int] = {}  # each id's line
    with open(path, "rb") as fh:
        for ln, line in enumerate(fh, 1):
            try:  # ValueError: not JSON, UTF-8 or numbers; RecursionError: nested too deep
                if line.strip():
                    obj = json.loads(line)
                    key = str(obj["id"])
                    if key in line_of:
                        raise ValueError(f"id {key!r} repeats line {line_of[key]}")
                    line_of[key] = ln
                    out[key] = vec = np.asarray(obj["vector"], dtype=np.float64)
                    if vec.shape != (dim or len(vec),) or not np.isfinite(vec).all():
                        raise ValueError(f"vector of shape {vec.shape} is not a row of "
                                         f"{dim or 'any number of'} finite numbers")
            except (KeyError, TypeError, ValueError, OverflowError, RecursionError) as exc:
                raise ManifestError(f"{path}:{ln}: not an embedding record "
                                    f"({type(exc).__name__}: {exc})") from exc
    return out
