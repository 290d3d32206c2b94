"""Crop-plan geometry and flip sampling."""

import json
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from metalora import augment
from metalora.augment import (ASPECTS, MULTIPLIERS, CropSpec, FaceBox,
                              _crop_dims, _max_short_side, plan_crops,
                              plan_to_jsonl, sample_view)
from metalora.errors import MetaLoraError
from metalora.numerics import make_rng


def oracle_plan(image_w, image_h, face):
    """Independent brute-force oracle.

    For each (aspect, multiplier): find the largest feasible short side
    <= requested by scanning downward from the requested size (feasibility
    checked by constructing the rect); center on the face centroid and clamp.
    Duplicates collapse, order is aspect-major / multiplier-minor.
    """
    cx = face.x + face.w / 2.0
    cy = face.y + face.h / 2.0
    out = []
    seen = set()
    for aspect, aw, ah in ASPECTS:
        for mult in MULTIPLIERS:
            requested = round(mult * max(face.w, face.h))
            s = max(requested, 1)
            while s > 1:
                w, h = _crop_dims(aw, ah, s)
                if w <= image_w and h <= image_h:
                    break
                s -= 1
            w, h = _crop_dims(aw, ah, s)
            if w > image_w or h > image_h:
                continue  # aspect infeasible at any size
            x = min(max(round(cx - w / 2.0), 0), image_w - w)
            y = min(max(round(cy - h / 2.0), 0), image_h - h)
            rect = (x, y, w, h)
            if rect in seen:
                continue
            seen.add(rect)
            out.append(rect)
    return out


class TestPlanGeometry:
    def test_direct_formula_case(self):
        # image 4000x3000, face 300x400 (f_long 400), 1:1 at 1.5x -> 600x600
        # centered on the face center.
        face = FaceBox(x=1000, y=1000, w=300, h=400)
        plan = plan_crops(4000, 3000, face)
        square = [s for s in plan if s.aspect == "1:1" and s.scale_multiplier == 1.5]
        assert len(square) == 1
        s = square[0]
        assert (s.w, s.h) == (600, 600)
        cx, cy = face.center
        assert s.x == round(cx - 300) and s.y == round(cy - 300)

    def test_unbounded_image_exactly_25(self):
        face = FaceBox(x=5000, y=5000, w=200, h=200)
        plan = plan_crops(100_000, 100_000, face)
        assert len(plan) == 25
        combos = {(s.aspect, s.scale_multiplier) for s in plan}
        assert combos == {(a, m) for a, _, _ in ASPECTS for m in MULTIPLIERS}

    def test_constrained_image_duplicates_collapse(self):
        # 700x700 image, f_long 400: 1:1 multipliers 2..4.5 all clamp to 700.
        face = FaceBox(x=150, y=150, w=400, h=400)
        plan = plan_crops(700, 700, face)
        squares = [s for s in plan if s.aspect == "1:1"]
        assert len(squares) == 2  # 600x600 and one clamped 700x700
        assert {(s.w, s.h) for s in squares} == {(600, 600), (700, 700)}
        assert len(plan) < 25

    @pytest.mark.parametrize("image_w,image_h,fx,fy,fw,fh", [
        (4000, 3000, 1000, 1000, 300, 400),
        (700, 700, 150, 150, 400, 400),
        (1024, 1024, 10, 900, 100, 100),
        (1920, 1080, 0, 0, 640, 480),
        (500, 900, 100, 200, 50, 300),
        (333, 777, 0, 0, 333, 100),
        # images where an aspect fits at no size: it was planned as (0, 0, 0, 0)
        (1, 1, 0, 0, 1, 1),
        (2, 1, 0, 0, 1, 1),
        (1, 3, 0, 0, 1, 1),
    ])
    def test_matches_brute_force_oracle(self, image_w, image_h, fx, fy, fw, fh):
        face = FaceBox(fx, fy, fw, fh)
        plan = plan_crops(image_w, image_h, face)
        assert [s.rect for s in plan] == oracle_plan(image_w, image_h, face)
        for s in plan:
            assert s.w >= 1 and s.h >= 1 and s.x + s.w <= image_w and s.y + s.h <= image_h

    @given(st.integers(100, 3000), st.integers(100, 3000), st.integers(0, 10**6))
    @settings(max_examples=60, deadline=None)
    def test_invariants_property(self, image_w, image_h, seed):
        rng = make_rng(seed)
        fw = int(rng.integers(1, image_w + 1))
        fh = int(rng.integers(1, image_h + 1))
        fx = int(rng.integers(0, image_w - fw + 1))
        fy = int(rng.integers(0, image_h - fh + 1))
        face = FaceBox(fx, fy, fw, fh)
        plan = plan_crops(image_w, image_h, face)
        assert 1 <= len(plan) <= 25
        seen = set()
        for s in plan:
            # in-bounds
            assert 0 <= s.x and 0 <= s.y
            assert s.x + s.w <= image_w and s.y + s.h <= image_h
            # aspect correct within 1px of rounding on each side
            _, aw, ah = next(a for a in ASPECTS if a[0] == s.aspect)
            short = min(s.w, s.h)
            ww, hh = _crop_dims(aw, ah, short)
            assert abs(s.w - ww) <= 1 and abs(s.h - hh) <= 1
            # deduplicated
            assert s.rect not in seen
            seen.add(s.rect)

    def test_face_containment_when_feasible(self):
        # every rect contains the face box whenever the rect is at least
        # as large as the face in both dimensions
        face = FaceBox(x=400, y=400, w=200, h=250)
        for s in plan_crops(2000, 2000, face):
            if s.w >= face.w and s.h >= face.h:
                assert s.x <= face.x and s.y <= face.y
                assert s.x + s.w >= face.x + face.w
                assert s.y + s.h >= face.y + face.h

    def test_deterministic(self):
        face = FaceBox(100, 120, 140, 160)
        assert plan_crops(900, 800, face) == plan_crops(900, 800, face)

    @pytest.mark.parametrize("face", [FaceBox(400, 400, 200, 200), FaceBox(350, 0, 200, 100),
                                      FaceBox(0, 450, 100, 100), FaceBox(-1, 0, 10, 10),
                                      FaceBox(0, -1, 10, 10)],
                             ids=["both-sides", "right-edge", "bottom-edge", "left-edge",
                                  "top-edge"])
    def test_face_out_of_bounds_rejected(self, face):
        with pytest.raises(MetaLoraError):
            plan_crops(500, 500, face)

    @pytest.mark.parametrize("w, h", [(0, 10), (10, 0), (-1, 10), (10, -1)])
    def test_face_box_without_area_rejected(self, w, h):
        with pytest.raises(MetaLoraError):
            FaceBox(0, 0, w, h)

    def test_short_sides_are_the_papers_multipliers(self):
        # a face that every crop fits around: each aspect's short sides are
        # 1.5, 2, 2.5, 3.5 and 4.5 x f_long
        plan = plan_crops(4000, 4000, FaceBox(1900, 1900, 80, 100))
        assert [(s.aspect, min(s.w, s.h)) for s in plan] == [
            (aspect, side) for aspect in ("16:9", "4:3", "1:1", "3:4", "9:16")
            for side in (150, 200, 250, 350, 450)]

    def test_max_short_side_fits(self):
        for _, aw, ah in ASPECTS:
            s = _max_short_side(aw, ah, 1234, 777)
            w, h = _crop_dims(aw, ah, s)
            assert w <= 1234 and h <= 777

    def test_max_short_side_is_the_largest_that_fits(self):
        # brute force over every image up to 40 x 40, 21 x 12 among them,
        # where 16:9's floor (11) is one below the largest side that fits (12)
        assert _max_short_side(16, 9, 21, 12) == 12
        for _, aw, ah in ASPECTS:
            for iw in range(1, 41):
                for ih in range(1, 41):
                    fitting = [s for s in range(1, 41) if all(
                        a <= b for a, b in zip(_crop_dims(aw, ah, s), (iw, ih)))]
                    assert _max_short_side(aw, ah, iw, ih) == max(fitting, default=0)

    @pytest.mark.parametrize("iw, ih", [(1920, 1080), (1080, 1920), (2**31 - 1, 2**31 - 1),
                                        (2**31 - 1, 7), (7, 2**31 - 1)])
    def test_max_short_side_settles_in_a_few_steps(self, monkeypatch, iw, ih):
        # the search starts at the floor of the answer, so its cost does not
        # grow with the image
        calls = []
        crop = augment._crop_dims
        monkeypatch.setattr(augment, "_crop_dims", lambda *a: calls.append(a) or crop(*a))
        for _, aw, ah in ASPECTS:
            calls.clear()
            _max_short_side(aw, ah, iw, ih)
            assert len(calls) <= 3


class TestSampleView:
    def test_flip_frequency(self):
        spec = CropSpec(0, 0, 100, 100, "1:1", 1.5)
        rng = make_rng(3)
        n = 10_000
        flips = sum(sample_view(spec, rng) for _ in range(n))
        assert abs(flips / n - 0.5) <= 0.015

    def test_coin_is_exactly_fair(self):
        # a draw below 0.5 flips and 0.5 does not: exactly half of random()'s
        # 2**53 equally likely values
        spec = CropSpec(0, 0, 100, 100, "1:1", 1.5)
        draws = [np.nextafter(0.5, 0.0), 0.5, 0.0]
        assert [sample_view(spec, SimpleNamespace(random=lambda: d)) for d in draws] == \
            [True, False, True]

    def test_flip_disallowed_always_false(self):
        spec = CropSpec(0, 0, 100, 100, "1:1", 1.5, flip_allowed=False)
        rng = make_rng(4)
        assert all(sample_view(spec, rng) is False for _ in range(200))

    def test_seeded_sequence_reproducible(self):
        spec = CropSpec(0, 0, 100, 100, "1:1", 1.5)
        a = [sample_view(spec, make_rng(7)) for _ in range(1)]
        seq1 = [sample_view(spec, rng) for rng in [make_rng(7)] * 0]
        rng1, rng2 = make_rng(9), make_rng(9)
        s1 = [sample_view(spec, rng1) for _ in range(50)]
        s2 = [sample_view(spec, rng2) for _ in range(50)]
        assert s1 == s2
        assert a is not None and seq1 == []


class TestJsonl:
    def test_round_trip_fields(self):
        plan = plan_crops(1024, 1024, FaceBox(300, 300, 200, 200))
        text = plan_to_jsonl(plan)
        recs = [json.loads(l) for l in text.strip().splitlines()]
        assert len(recs) == len(plan)
        for rec, spec in zip(recs, plan):
            assert (rec["x"], rec["y"], rec["w"], rec["h"]) == spec.rect
            assert rec["aspect"] == spec.aspect
            assert rec["scale_multiplier"] == spec.scale_multiplier

    def test_empty_plan_empty_string(self):
        assert plan_to_jsonl([]) == ""
