"""Identity-similarity metrics: exclusion semantics, oracles, reporting."""

import json

import numpy as np
import pytest

from metalora.errors import DimensionError, MetaLoraError, NumericError
from metalora.evaluation import (EvalManifest, IdentityEntry, ToyEmbedder,
                                 cosine, discrepancy_report, facesim_conventional,
                                 r_facesim, read_embeddings_jsonl)
from metalora.numerics import make_rng


class TestCosine:
    def test_parallel_is_one(self):
        assert cosine(np.array([1.0, 2.0]), np.array([2.0, 4.0])) == pytest.approx(1.0)

    def test_orthogonal_is_zero(self):
        assert cosine(np.array([1.0, 0.0]), np.array([0.0, 5.0])) == pytest.approx(0.0)

    def test_antiparallel_is_minus_one(self):
        assert cosine(np.array([1.0, 1.0]), np.array([-3.0, -3.0])) == pytest.approx(-1.0)

    def test_zero_norm_rejected(self):
        with pytest.raises(NumericError):
            cosine(np.zeros(3), np.ones(3))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(DimensionError):
            cosine(np.ones(3), np.ones(4))


def identity_embedder(v):
    return np.asarray(v, dtype=np.float64)


def manifest_from_vectors(entries, prompts=("p0",)):
    idents = [IdentityEntry(identity=name, reference=np.asarray(ref, float),
                            tests=[np.asarray(t, float) for t in tests])
              for name, ref, tests in entries]
    return EvalManifest(identities=idents, prompts=list(prompts))


class TestRFaceSim:
    def test_hand_computed_two_cosines(self):
        # generated = [1,0]; tests have cosines 0.8 and 0.6 -> mean 0.7 -> 70.0
        c, s8 = 0.8, np.sqrt(1 - 0.8**2)
        t1 = np.array([0.8, s8])
        t2 = np.array([0.6, np.sqrt(1 - 0.6**2)])
        man = manifest_from_vectors([("a", [0.0, 1.0], [t1, t2])])
        res = r_facesim(man, lambda ref, p: np.array([1.0, 0.0]),
                        identity_embedder)
        assert res.score == pytest.approx(70.0, abs=1e-12)
        assert c == 0.8

    def test_reference_never_scored(self):
        # generated equals the reference exactly; tests are orthogonal to it.
        # Robust score must be 0 (reference excluded), conventional 100.
        ref = np.array([1.0, 0.0, 0.0])
        tests = [np.array([0.0, 1.0, 0.0]), np.array([0.0, 0.0, 1.0])]
        man = manifest_from_vectors([("a", ref, tests)])
        gen = lambda r, p: r.copy()
        robust = r_facesim(man, gen, identity_embedder)
        conv = facesim_conventional(man, gen, identity_embedder)
        assert robust.score == pytest.approx(0.0, abs=1e-12)
        assert conv.score == pytest.approx(100.0, abs=1e-12)

    def test_copy_generator_inflation_phenomenon(self):
        # A reference-copying generator saturates the conventional protocol
        # but not the robust one (tests differ from the reference).
        rng = make_rng(0)
        entries = []
        for i in range(5):
            proto = rng.normal(size=8)
            ref = proto + 0.1 * rng.normal(size=8)
            tests = [proto + 0.1 * rng.normal(size=8) for _ in range(4)]
            entries.append((f"id{i}", ref, tests))
        man = manifest_from_vectors(entries, prompts=["p0", "p1"])
        gen = lambda r, p: r.copy()
        conv = facesim_conventional(man, gen, identity_embedder)
        robust = r_facesim(man, gen, identity_embedder)
        assert conv.score == pytest.approx(100.0, abs=1e-9)
        assert robust.score < 100.0

    def test_matches_nested_loop_oracle(self):
        rng = make_rng(1)
        entries = []
        for i in range(4):
            ref = rng.normal(size=6)
            tests = [rng.normal(size=6) for _ in range(3)]
            entries.append((f"id{i}", ref, tests))
        prompts = ["a", "b", "c"]
        man = manifest_from_vectors(entries, prompts=prompts)
        emb = ToyEmbedder(in_dim=6, out_dim=5, seed=9)

        def gen(ref, prompt):
            return ref + 0.05 * len(prompt)

        res = r_facesim(man, gen, emb)
        # independent nested-loop oracle
        sims = []
        for name, ref, tests in entries:
            for prompt in prompts:
                g = emb(gen(np.asarray(ref, float), prompt))
                per_test = [float(np.dot(g, emb(t)) /
                                  (np.linalg.norm(g) * np.linalg.norm(emb(t))))
                            for t in tests]
                sims.append(float(np.mean(per_test)))
        assert res.score == pytest.approx(100.0 * np.mean(sims), abs=1e-12)

    def test_order_independence(self):
        rng = make_rng(2)
        entries = [(f"id{i}", rng.normal(size=4),
                    [rng.normal(size=4) for _ in range(2)]) for i in range(4)]
        gen = lambda r, p: r + 0.1
        a = r_facesim(manifest_from_vectors(entries, ["p"]), gen, identity_embedder)
        b = r_facesim(manifest_from_vectors(entries[::-1], ["p"]), gen, identity_embedder)
        assert a.score == b.score

    def test_score_bounds(self):
        rng = make_rng(3)
        entries = [("x", rng.normal(size=4), [rng.normal(size=4)])]
        res = r_facesim(manifest_from_vectors(entries), lambda r, p: rng.normal(size=4),
                        identity_embedder)
        assert -100.0 <= res.score <= 100.0

    def test_generator_failure_excluded_not_zeroed(self):
        ref = np.array([1.0, 0.0])
        tests = [np.array([1.0, 0.0])]
        man = manifest_from_vectors([("a", ref, tests), ("b", ref, tests)],
                                    prompts=["p"])

        calls = {"n": 0}

        def flaky(r, p):
            calls["n"] += 1
            if calls["n"] == 1:
                raise RuntimeError("boom")
            return r

        res = r_facesim(man, flaky, identity_embedder)
        assert res.failures == 1
        assert len(res.table) == 1
        assert res.score == pytest.approx(100.0)  # mean over scored cells only

    def test_all_failures_is_error(self):
        man = manifest_from_vectors([("a", np.ones(2), [np.ones(2)])])

        def dead(r, p):
            raise RuntimeError("dead")

        with pytest.raises(MetaLoraError):
            r_facesim(man, dead, identity_embedder)


class TestDiscrepancy:
    def test_published_reference_rows(self):
        assert discrepancy_report(80.17, 71.33) == -11.0
        assert discrepancy_report(84.76, 75.72) == -10.7

    def test_zero_denominator(self):
        with pytest.raises(ZeroDivisionError):
            discrepancy_report(0.0, 50.0)

    def test_equal_scores_zero(self):
        assert discrepancy_report(70.0, 70.0) == 0.0


class TestManifestAndIO:
    def test_manifest_json_round_trip(self):
        doc = {"identities": [{"id": "a", "reference": [1.0, 2.0],
                               "tests": [[0.5, 0.5], [1.0, 0.0]]}],
               "prompts": ["hello"]}
        man = EvalManifest.from_json(doc)
        assert {"identities": [{"id": e.identity, "reference": e.reference.tolist(),
                                "tests": [t.tolist() for t in e.tests]}
                               for e in man.identities],
                "prompts": man.prompts} == doc

    def test_empty_tests_rejected(self):
        with pytest.raises(MetaLoraError):
            IdentityEntry(identity="a", reference=np.ones(2), tests=[])

    def test_empty_prompts_rejected(self):
        with pytest.raises(MetaLoraError):
            manifest_from_vectors([("a", np.ones(2), [np.ones(2)])], prompts=[])

    def test_empty_identities_rejected(self):
        with pytest.raises(MetaLoraError):
            EvalManifest(identities=[], prompts=["p"])

    def test_embeddings_jsonl_round_trip(self, tmp_path):
        path = tmp_path / "emb.jsonl"
        data = {"a": np.array([1.0, 2.5]), "b": np.array([-0.5, 0.0, 3.0])}
        path.write_text("".join(json.dumps({"id": k, "vector": v.tolist()}) + "\n"
                                for k, v in data.items()))
        back = read_embeddings_jsonl(path)
        assert set(back) == {"a", "b"}
        for k in data:
            assert np.array_equal(back[k], data[k])

    def test_toy_embedder_unit_norm_and_deterministic(self):
        emb = ToyEmbedder(in_dim=8, out_dim=4, seed=5)
        v = make_rng(0).normal(size=8)
        e1, e2 = emb(v), ToyEmbedder(8, 4, 5)(v)
        assert np.linalg.norm(e1) == pytest.approx(1.0)
        assert np.array_equal(e1, e2)
