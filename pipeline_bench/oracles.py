"""Checks of the program's outputs against computations made apart from it.

Nothing here calls into metalora: the stage-1 rules are re-derived from the
``.trace.jsonl`` the CLI wrote, the adapter chain, the denoiser and the
reverse pass are re-implemented in plain numpy, and the similarity scores are
recomputed by nested loops. Each check returns a list of failure messages
(empty when it holds).
"""

from __future__ import annotations

import json
import math

import numpy as np

# merged two-factor forward against the three-factor chain, on this many inputs
CHAIN_TOL = 1e-12
CHAIN_INPUTS = 100
# sin/cos features of the timestep fed to the toy denoiser
TIME_FEATURES = 8


def stage1_trace_rules(trace_path, train_identities: int, samples_per_identity: int,
                       identities_per_bucket: int, batch_size: int, q_total: int,
                       warm_up_fraction: float) -> list[str]:
    """Warm-up gate, identity isolation and bucket budget from the written trace.

    Bucket membership is read off the batches of each bucket id; the budget is
    ``ceil(10 * |bucket examples| / batch_size)`` with |bucket examples| =
    identities in the bucket x samples per identity.
    """
    errors: list[str] = []
    with open(trace_path) as fh:
        recs = [json.loads(line) for line in fh]
    if not recs:
        return ["stage-1 trace is empty"]
    members: dict[int, set[int]] = {}
    for r in recs:
        members.setdefault(r["bucket_id"], set()).update(r["batch_identities"])
    seen: set[int] = set()
    for b, ids in members.items():
        if ids & seen:
            errors.append(f"bucket {b} shares identities with another bucket")
        seen |= ids
        if len(ids) > identities_per_bucket:
            errors.append(f"bucket {b} has {len(ids)} identities")
    if seen != set(range(train_identities)):
        errors.append(f"buckets cover identities {sorted(seen)}")
    entries: dict[int, list[dict]] = {}
    for r in recs:
        entries.setdefault(r["entry_index"], []).append(r)
    prev_lomd = None
    for e, rows in sorted(entries.items()):
        b = rows[0]["bucket_id"]
        q_bucket = math.ceil(10 * len(members[b]) * samples_per_identity / batch_size)
        q_warm_up = round(warm_up_fraction * q_bucket)
        if [r["iter_in_bucket"] for r in rows] != list(range(q_bucket)):
            errors.append(f"entry {e} ran {len(rows)} iterations, budget {q_bucket}")
            continue
        start = prev_lomd if prev_lomd is not None else rows[0]["lomd_checksum"]
        for r in rows:
            if r["lomd_updated"] != (r["iter_in_bucket"] >= q_warm_up):
                errors.append(f"iteration {r['iteration']}: gate flag wrong")
                break
            if r["iter_in_bucket"] < q_warm_up and r["lomd_checksum"] != start:
                errors.append(f"iteration {r['iteration']}: shared factor moved in warm-up")
                break
        if all(r["lomd_checksum"] == start for r in rows[q_warm_up:]):
            errors.append(f"entry {e}: shared factor never moved after warm-up")
        prev_lomd = rows[-1]["lomd_checksum"]
    iterations = [r["iteration"] for r in recs]
    if iterations != list(range(len(recs))):
        errors.append("trace iterations are not consecutive")
    if len(recs) < q_total:
        errors.append(f"{len(recs)} iterations executed, q_total {q_total}")
    prev = None
    for r in recs:
        cur = r["identity_checksums"]
        if prev is not None:
            batch = {str(i) for i in r["batch_identities"]}
            moved = [k for k in cur if k not in batch and cur[k] != prev[k]]
            if moved:
                errors.append(f"iteration {r['iteration']}: identities {moved} "
                              "changed outside the batch")
                break
        prev = cur
    return errors


def chain_vs_merged(lmd, lm, lu, down, up, rng) -> list[str]:
    """Merged two-factor forward against the three-factor chain on random x."""
    if down.shape[0] > lm.shape[0] or up.shape[1] > lm.shape[0]:
        return [f"merged rank {down.shape[0]} exceeds r2 {lm.shape[0]}"]
    x = rng.normal(size=(lmd.shape[1], CHAIN_INPUTS))
    three = lu @ (lm @ (lmd @ x))
    two = up @ (down @ x)
    err = float(np.max(np.abs(three - two)))
    return [] if err <= CHAIN_TOL else [f"merged forward differs from the chain by {err:.3e}"]


def _time_features(t: int, T: int) -> np.ndarray:
    half = TIME_FEATURES // 2
    phase = [2.0 * math.pi * f * (t / T) for f in range(1, half + 1)]
    return np.array([math.sin(p) for p in phase] + [math.cos(p) for p in phase])


def reverse_pass(w0s, chains, alpha_bar, n_prompts: int, prompt_id: int,
                 x_init: np.ndarray) -> np.ndarray:
    """DDIM-style reverse pass of the two-layer tanh denoiser.

    ``chains`` holds one (down, mid, up) factor triple per layer; the residual
    is applied factor by factor, ``up @ (mid @ (down @ x))``.
    """
    x = x_init.copy()
    T = len(alpha_bar)
    onehot = np.zeros(n_prompts)
    onehot[prompt_id] = 1.0
    for t in range(T - 1, -1, -1):
        inp = np.concatenate([x, _time_features(t, T), onehot])
        h = inp
        for li, (w0, (down, mid, up)) in enumerate(zip(w0s, chains)):
            h = w0 @ h + up @ (mid @ (down @ h))
            if li == 0:
                h = np.tanh(h)
        ab = alpha_bar[t]
        x0_hat = (x - math.sqrt(1.0 - ab) * h) / math.sqrt(ab)
        if t > 0:
            x = math.sqrt(alpha_bar[t - 1]) * x0_hat + math.sqrt(1.0 - alpha_bar[t - 1]) * h
        else:
            x = x0_hat
    return x


def _embed(proj: np.ndarray, vec: np.ndarray) -> list[float]:
    e = [sum(proj[i, j] * vec[j] for j in range(len(vec))) for i in range(proj.shape[0])]
    n = math.sqrt(sum(v * v for v in e))
    return [v / n for v in e]


def _cos(a: list[float], b: list[float]) -> float:
    dot = sum(x * y for x, y in zip(a, b))
    na = math.sqrt(sum(x * x for x in a))
    nb = math.sqrt(sum(y * y for y in b))
    return dot / (na * nb)


def brute_force_scores(references: dict[str, np.ndarray],
                       tests: dict[str, list[np.ndarray]],
                       generated: dict[tuple[str, str], np.ndarray],
                       prompts: list[str], proj: np.ndarray) -> tuple[float, float]:
    """(R-FaceSim, FaceSim) x100 by nested loops over identities, prompts, tests."""
    robust, conventional = [], []
    for ident in sorted(references):
        ref_e = _embed(proj, references[ident])
        test_e = [_embed(proj, t) for t in tests[ident]]
        for prompt in prompts:
            g = _embed(proj, generated[(ident, prompt)])
            robust.append(sum(_cos(g, t) for t in test_e) / len(test_e))
            conventional.append(_cos(g, ref_e))
    return (100.0 * sum(robust) / len(robust),
            100.0 * sum(conventional) / len(conventional))
