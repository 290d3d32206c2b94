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
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, ManifestError, MetaLoraError, NumericError


def cosine(a: np.ndarray, b: np.ndarray) -> float:
    a = np.asarray(a, dtype=np.float64).ravel()
    b = np.asarray(b, dtype=np.float64).ravel()
    if a.shape != b.shape:
        raise DimensionError("cosine", a.shape, b.shape)
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if na == 0 or nb == 0:
        raise NumericError("cosine: zero-norm input")
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


@dataclass
class EvalManifest:
    identities: list[IdentityEntry]
    prompts: list[str]

    def __post_init__(self):
        if not self.identities:
            raise ManifestError("manifest has no identities")
        if not self.prompts:
            raise ManifestError("manifest has no prompts")
        sizes = {v.size for e in self.identities for v in (e.reference, *e.tests)}
        if len(sizes) > 1 or 0 in sizes:
            raise ManifestError(f"manifest vectors need one nonzero length, not {sorted(sizes)}")

    @classmethod
    def from_json(cls, doc: dict) -> "EvalManifest":
        """The manifest of a parsed JSON document; a missing or ill-typed
        field raises :class:`ManifestError`."""
        try:
            idents = [IdentityEntry(identity=str(e["id"]),
                                    reference=np.asarray(e["reference"], dtype=np.float64),
                                    tests=[np.asarray(t, dtype=np.float64) for t in e["tests"]])
                      for e in doc["identities"]]
            prompts = list(doc["prompts"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ManifestError(f"malformed manifest ({type(exc).__name__}: {exc})") from exc
        return cls(identities=idents, prompts=prompts)


@dataclass
class MetricResult:
    score: float               # x100
    table: dict[tuple[str, str], float]  # (identity, prompt) -> mean similarity
    failures: int = 0


class ToyEmbedder:
    """Deterministic stand-in embedder: a seeded random projection of the
    latent, normalized to unit length."""

    def __init__(self, in_dim: int, out_dim: int = 16, seed: int = 1234):
        rng = np.random.Generator(np.random.PCG64(seed))
        self.proj = rng.normal(0.0, 1.0 / np.sqrt(in_dim), size=(out_dim, in_dim))

    def __call__(self, vec: np.ndarray) -> np.ndarray:
        e = self.proj @ np.asarray(vec, dtype=np.float64).ravel()
        n = np.linalg.norm(e)
        if n == 0:
            raise NumericError("toy embedder produced a zero vector")
        return e / n


def _score_identities(manifest: EvalManifest, generator, embedder,
                      against_reference: bool) -> MetricResult:
    table: dict[tuple[str, str], float] = {}
    failures = 0
    for entry in sorted(manifest.identities, key=lambda e: e.identity):
        ref_emb = embedder(entry.reference)
        test_embs = [embedder(t) for t in entry.tests]
        for prompt in manifest.prompts:
            try:
                generated = generator(entry.reference, prompt)
            except Exception:  # generator crash: exclude, never score 0
                failures += 1
                continue
            g_emb = embedder(generated)
            if against_reference:
                sim = cosine(g_emb, ref_emb)
            else:
                sim = float(np.mean([cosine(g_emb, t) for t in test_embs]))
            table[(entry.identity, prompt)] = sim
    if not table:
        raise MetaLoraError("all generations failed; nothing to score")
    # fixed sorted reduction order so permuting inputs cannot change the sum
    ordered = [table[k] for k in sorted(table)]
    return MetricResult(score=100.0 * float(np.mean(ordered)), table=table,
                        failures=failures)


def r_facesim(manifest: EvalManifest, generator, embedder) -> MetricResult:
    """Reference-excluding similarity: each generated image is compared to
    the held-out test images of its identity and the cosines are averaged.

    ``generator(reference, prompt)`` must return a generated item (the
    reference conditions or fine-tunes the underlying model).
    """
    return _score_identities(manifest, generator, embedder, against_reference=False)


def facesim_conventional(manifest: EvalManifest, generator, embedder) -> MetricResult:
    """Conventional protocol: compares against the reference itself, which a
    pose-copying generator can saturate."""
    return _score_identities(manifest, generator, embedder, against_reference=True)


def discrepancy_report(facesim: float, r_facesim_score: float) -> float:
    """Relative difference (%), rounded to 0.1, of the robust vs conventional
    score. Negative values flag inflation under the conventional protocol."""
    if facesim == 0:
        raise ZeroDivisionError("discrepancy_report: facesim is zero")
    return round(100.0 * (r_facesim_score - facesim) / facesim, 1)


def read_embeddings_jsonl(path, dim: int | None = None) -> dict[str, np.ndarray]:
    """Embedding-exchange format: one {"id": ..., "vector": [...]} per line, the
    vector ``dim`` (if given) finite numbers; :class:`ManifestError` names a bad line."""
    out: dict[str, np.ndarray] = {}
    with open(path, "rb") as fh:
        for ln, line in enumerate(fh, 1):
            try:  # ValueError: not JSON or not UTF-8, or not numbers
                if line.strip():
                    obj = json.loads(line)
                    out[str(obj["id"])] = vec = np.asarray(obj["vector"], dtype=np.float64)
                    if vec.shape != (dim or len(vec),) or not np.isfinite(vec).all():
                        raise ValueError(f"vector of shape {vec.shape} is not a row of "
                                         f"{dim or 'any number of'} finite numbers")
            except (KeyError, TypeError, ValueError) as exc:
                raise ManifestError(f"{path}:{ln}: not an embedding record "
                                    f"({type(exc).__name__}: {exc})") from exc
    return out
