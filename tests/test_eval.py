"""Identity-similarity metrics: exclusion semantics, oracles, reporting."""

import json
import struct

import numpy as np
import pytest

from metalora import evaluation
from metalora.cli import main
from metalora.errors import DimensionError, ManifestError, MetaLoraError, NumericError
from metalora.evaluation import (EvalManifest, IdentityEntry, ToyEmbedder,
                                 cosine, discrepancy_report, facesim_conventional,
                                 facesim_scores, r_facesim, read_embeddings_jsonl)
from metalora.numerics import make_rng

from test_checkpoint_cli import evaluate_inputs


class TestCosine:
    def test_parallel_is_one(self):
        assert cosine(np.array([1.0, 2.0]), np.array([2.0, 4.0])) == pytest.approx(1.0)

    def test_orthogonal_is_zero(self):
        assert cosine(np.array([1.0, 0.0]), np.array([0.0, 5.0])) == pytest.approx(0.0)

    def test_antiparallel_is_minus_one(self):
        assert cosine(np.array([1.0, 1.0]), np.array([-3.0, -3.0])) == pytest.approx(-1.0)

    def test_zero_norm_rejected(self):
        for args in ((np.zeros(3), np.ones(3)), (np.ones(3), np.zeros(3))):
            with pytest.raises(NumericError,
                               match=r"^cosine: an input's squared norm is zero \(0\.0\)$"):
                cosine(*args)

    # a nonzero vector whose squared norm is not a normal finite float: its
    # cosine would be silently wrong (nan, 0.0, or the parent's "zero-norm"
    # refusal of a nonzero vector), so the fault is named instead
    @pytest.mark.parametrize("a, b, fault", [
        ([1e200, 0.0], [1e200, 0.0], "overflows (inf)"),
        ([1e200, 0.0], [1.0, 0.0], "overflows (inf)"),
        (np.full(2, 1e-170), [1.0, 1.0], "underflows (0.0)"),
        ([1e-160, 0.0], [1.0, 0.0], "underflows (1e-320)")],
        ids=["both-overflow", "one-overflows", "square-underflows", "square-subnormal"])
    def test_extreme_norm_rejected(self, a, b, fault):
        for args in ((a, b), (b, a)):
            with pytest.raises(NumericError) as exc:
                cosine(*args)
            assert str(exc.value) == f"cosine: an input's squared norm {fault}"

    def test_shape_mismatch_rejected(self):
        with pytest.raises(DimensionError):
            cosine(np.ones(3), np.ones(4))

    def test_smallest_normal_square_accepted(self):
        # 2**-511 squares to exactly the smallest normal float: no bit is lost
        tiny = np.finfo(np.float64).tiny
        assert (2.0 ** -511) ** 2 == tiny
        for args in (([2.0 ** -511], [1.0]), ([1.0], [2.0 ** -511])):
            assert cosine(*args) == 1.0

    def test_largest_finite_square_accepted(self):
        # sqrt(max)**2 is one ulp below the largest float, and a second entry
        # of 1.2 * 2**485 adds that ulp: the squared norm is exactly the largest
        # finite float, which is still accepted
        huge = np.finfo(np.float64).max
        v = np.array([np.sqrt(huge), 1.2 * 2.0 ** 485])
        assert v.dot(v) == huge
        for args in ((v, [1.0, 0.0]), ([1.0, 0.0], v)):
            assert cosine(*args) == 1.0


def spread_vectors(seed, n):
    """``n`` random vectors of 1 to 40 entries, each scaled by a magnitude
    drawn log-uniformly from 1e-150 to 1e150."""
    rng = make_rng(seed)
    return [rng.normal(size=int(rng.integers(1, 41))) * 10.0 ** rng.uniform(-150, 150)
            for _ in range(n)]


def bits(x: float) -> bytes:
    return struct.pack("<d", x)


class TestNormForms:
    """cosine and ToyEmbedder take a norm as sqrt(v . v), np.linalg.norm's own
    formula for a real vector: the same bits, and the same refusals."""

    def test_cosine_equals_its_linalg_norm_form_bitwise(self):
        for a in spread_vectors(1, 400):
            b = make_rng(len(a)).normal(size=len(a)) * np.abs(a).max()
            na, nb = np.linalg.norm(a), np.linalg.norm(b)
            assert bits(cosine(a, b)) == bits(float(np.dot(a, b) / (na * nb)))
            assert bits(cosine(a, a)) == bits(float(np.dot(a, a) / (na * na)))

    def test_embedder_equals_its_linalg_norm_form_bitwise(self):
        for v in spread_vectors(2, 400):
            emb = ToyEmbedder(in_dim=len(v), out_dim=16, seed=len(v))
            e = emb.proj @ v
            assert emb(v).tobytes() == (e / np.linalg.norm(e)).tobytes()

    # cosine's rule: a projection whose squared norm is not a normal finite
    # float. At 1e-160 the square is subnormal, and dividing by its root would
    # give an embedding of norm 1.0003
    @pytest.mark.parametrize("v, fault", [
        (np.zeros(4), "is zero"), (np.full(4, 1e-170), "underflows"),
        (np.full(4, 1e-160), "underflows"), (np.full(4, 1e300), "overflows"),
        (np.array([1.0, np.inf, 0.0, 0.0]), "overflows"), (np.full(4, np.nan), "is nan")],
        ids=["zero", "square-underflows", "square-subnormal", "square-overflows", "inf",
             "nan"])
    def test_embedder_refuses_a_squared_norm_that_is_not_normal(self, v, fault):
        emb = ToyEmbedder(in_dim=4, out_dim=3, seed=7)
        with np.errstate(all="ignore"):
            e = emb.proj @ v
            sq = e.dot(e)
        with pytest.raises(NumericError) as exc:
            emb(v)
        assert str(exc.value) == f"toy embedder: a projection's squared norm {fault} ({sq})"

    @pytest.mark.parametrize("where, vector, record", [
        ("generated", [0.0, 0.0, 0.0], "generated item 'a||p'"),
        ("reference", [0.0, 0.0, 0.0], "reference"),
        ("test", [0.0, 0.0, 0.0], "test item 1"),
        ("generated", [1e300, -1e300, 1e300], "generated item 'a||p'")],
        ids=["zero-generated", "zero-reference", "zero-test", "overflowing-generated"])
    def test_evaluate_exits_4(self, tmp_path, capsys, where, vector, record):
        # a zero vector embeds to norm 0, and one of 1e300 entries to norm inf;
        # the error names the identity and the record
        ref = vector if where == "reference" else [1.0, 2.0, 3.0]
        gen_vec = vector if where == "generated" else [2.0, 1.0, 3.0]
        tests = [[3.0, 1.0, 2.0], vector if where == "test" else [1.0, 3.0, 2.0]]
        man, gen, out = tmp_path / "man.json", tmp_path / "gen.jsonl", tmp_path / "o"
        man.write_text(json.dumps({"identities": [{"id": "a", "reference": ref,
                                                   "tests": tests}],
                                   "prompts": ["p"]}))
        gen.write_text(json.dumps({"id": "a||p", "vector": gen_vec}) + "\n")
        assert main(["evaluate", "--manifest", str(man), "--generated", str(gen),
                     "--out", str(out)]) == 4
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert err["error"] == "numeric"
        assert err["message"].startswith(
            f"identity 'a', {record}: toy embedder: a projection's squared norm ")
        assert not out.exists()


def test_evaluate_scores_are_pinned(tmp_path):
    # evaluate's scores on fixed inputs with the default --embedder-seed, to
    # 1e-12: a change to the embedder's projection or the scoring rule moves them
    out = tmp_path / "report.json"
    assert main(["evaluate", *evaluate_inputs(tmp_path), "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["r_facesim"] == pytest.approx(98.87058151652082, rel=1e-12, abs=0)
    assert report["facesim"] == pytest.approx(97.74405560962373, rel=1e-12, abs=0)
    assert report["relative_difference_pct"] == 1.2


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
        # both protocols of one pass exclude the one failed generation
        calls["n"] = 0
        robust, conventional = facesim_scores(man, flaky, identity_embedder)
        assert calls["n"] == 2
        assert robust.failures == conventional.failures == 1
        assert list(robust.table) == list(conventional.table) == [("b", "p")]

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
        with pytest.raises(NumericError, match="facesim is zero"):
            discrepancy_report(0.0, 50.0)

    def test_equal_scores_zero(self):
        assert discrepancy_report(70.0, 70.0) == 0.0

    # the sign rule holds for a negative FaceSim too: the difference is taken
    # against |FaceSim|, so a higher R-FaceSim is never reported as inflation
    @pytest.mark.parametrize("facesim, robust, want", [
        (-10.0, -5.0, 50.0), (-5.0, -10.0, -100.0), (10.0, 5.0, -50.0), (5.0, 10.0, 100.0)])
    def test_sign_follows_the_robust_score(self, facesim, robust, want):
        assert discrepancy_report(facesim, robust) == want

    def test_evaluate_reports_no_inflation_for_an_anticopy(self, tmp_path, capsys):
        # the generated item is minus the reference: FaceSim -100, R-FaceSim
        # above it, so the relative difference is positive
        r = [1.0, 2.0, 3.0]
        man, gen, out = tmp_path / "man.json", tmp_path / "gen.jsonl", tmp_path / "o"
        man.write_text(json.dumps({"identities": [{"id": "a", "reference": r,
                                                   "tests": [[3.0, 1.0, 2.0]]}],
                                   "prompts": ["p"]}))
        gen.write_text(json.dumps({"id": "a||p", "vector": [-x for x in r]}) + "\n")
        assert main(["evaluate", "--manifest", str(man), "--generated", str(gen),
                     "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["facesim"] == pytest.approx(-100.0, abs=1e-12)
        assert report["r_facesim"] > report["facesim"]
        assert report["relative_difference_pct"] == 23.8
        assert capsys.readouterr().out.splitlines()[-1].split() == ["rel.", "diff", "%", "23.8"]


class TestOnePass:
    """facesim_scores generates and embeds each pair once for both protocols;
    each protocol alone embeds only its own targets."""

    def test_evaluate_generates_and_embeds_each_pair_once(self, tmp_path, monkeypatch):
        # 3 identities x 2 prompts: 6 lookups of --generated, and 3 x (3 test
        # items + 1 reference) + 6 generated items = 18 embeddings
        lookups, embeds = [], []

        class Records(dict):
            def __getitem__(self, key):
                lookups.append(key)
                return super().__getitem__(key)

        read, embed = evaluation.read_embeddings_jsonl, ToyEmbedder.__call__
        monkeypatch.setattr(evaluation, "read_embeddings_jsonl",
                            lambda *args: Records(read(*args)))
        monkeypatch.setattr(ToyEmbedder, "__call__",
                            lambda self, v: embeds.append(v) or embed(self, v))
        out = tmp_path / "report.json"
        assert main(["evaluate", *evaluate_inputs(tmp_path), "--out", str(out)]) == 0
        assert len(lookups) == len(set(lookups)) == 6
        assert len(embeds) == 18

    def test_a_generation_that_fails_once_is_excluded_from_both(self, tmp_path, monkeypatch):
        # a generator that fails on its first call only gives the report of a
        # --generated file without that pair: both scores exclude the pair
        argv, calls = evaluate_inputs(tmp_path), []

        class FailsFirst(dict):
            def __getitem__(self, key):
                calls.append(key)
                if len(calls) == 1:
                    raise KeyError(key)
                return super().__getitem__(key)

        read = evaluation.read_embeddings_jsonl
        monkeypatch.setattr(evaluation, "read_embeddings_jsonl",
                            lambda *args: FailsFirst(read(*args)))
        flaky = tmp_path / "flaky.json"
        assert main(["evaluate", *argv, "--out", str(flaky)]) == 0
        monkeypatch.setattr(evaluation, "read_embeddings_jsonl", read)
        gen = tmp_path / "gen.jsonl"
        gen.write_text("".join(line for line in gen.read_text().splitlines(True)
                               if json.loads(line)["id"] != calls[0]))
        missing = tmp_path / "missing.json"
        assert main(["evaluate", *argv, "--out", str(missing)]) == 0
        assert calls[0] == "id0||p0"
        report = json.loads(flaky.read_text())
        assert report["failures"] == 1 and len(report["per_pair"]) == 5
        assert flaky.read_bytes() == missing.read_bytes()

    def test_each_protocol_alone_embeds_only_its_targets(self):
        # 8 identities x 4 prompts, 19 test items each: R-FaceSim embeds
        # 8 x 19 + 32 = 184 vectors, FaceSim 8 + 32 = 40, and both in one pass
        # 8 x 20 + 32 = 192; each pair is generated once per call
        rng = make_rng(32)
        entries = [(f"id{i}", rng.normal(size=6), [rng.normal(size=6) for _ in range(19)])
                   for i in range(8)]
        man = manifest_from_vectors(entries, prompts=["p0", "p1", "p2", "p3"])
        emb = ToyEmbedder(in_dim=6, out_dim=5, seed=9)
        embeds, generations = [], []

        def embedder(v):
            embeds.append(v)
            return emb(v)

        def gen(ref, prompt):
            generations.append(prompt)
            return ref + 0.1 * len(generations)

        results = []
        for score, want in ((r_facesim, 184), (facesim_conventional, 40), (facesim_scores, 192)):
            embeds.clear()
            generations.clear()
            results.append(score(man, gen, embedder))
            assert (len(embeds), len(generations)) == (want, 32), score.__name__
        # the one pass gives each protocol's own result, bit for bit
        assert results[2] == tuple(results[:2])

    def test_evaluate_trace_names_the_embedder_and_failures(self, tmp_path):
        argv, traces = evaluate_inputs(tmp_path), []
        for seed in (1, 2):
            out = tmp_path / f"report{seed}.json"
            assert main(["evaluate", *argv, "--embedder-seed", str(seed),
                         "--out", str(out)]) == 0
            traces.append(json.loads((tmp_path / f"report{seed}.json.trace.json").read_text()))
        for seed, trace in zip((1, 2), traces):
            assert trace["config"]["embedder_seed"] == seed
            assert trace["failures"] == 0
        assert traces[0]["config_hash"] != traces[1]["config_hash"]


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

    def test_repeat_is_named(self):
        # the error names the repeated id or prompt, not the first one listed
        ident = lambda name: (name, np.ones(2), [np.ones(2)])
        with pytest.raises(ManifestError, match=r"^manifest repeats identity id 'b'$"):
            manifest_from_vectors([ident("a"), ident("b"), ident("b")])
        with pytest.raises(ManifestError, match=r"^manifest repeats prompt 'q'$"):
            manifest_from_vectors([ident("a")], prompts=["p", "q", "q"])

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
        e1, e2 = emb(v), ToyEmbedder(8, 4, seed=5)(v)
        assert np.linalg.norm(e1) == pytest.approx(1.0)
        assert np.array_equal(e1, e2)

    def test_toy_embedder_projection_is_rebuilt_from_its_seed(self):
        # the projection is PCG64(seed)'s normal(0, 1/sqrt(in_dim)) draw, bit
        # for bit: a brute-force scorer (the benchmark's) rebuilds it from the
        # seed alone, and its scale sets which inputs checked_norm refuses
        for in_dim, out_dim, seed in ((8, 4, 5), (32, 16, 1234), (3, 7, 0)):
            want = np.random.Generator(np.random.PCG64(seed)).normal(
                0.0, 1.0 / np.sqrt(in_dim), size=(out_dim, in_dim))
            assert ToyEmbedder(in_dim, out_dim, seed=seed).proj.tobytes() == want.tobytes()
