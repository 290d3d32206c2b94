"""Single-image augmentation geometry: face-centered multi-aspect crops.

For each of five aspect ratios and five scale multipliers, a crop is sized so
its short side is multiplier * f_long (the longer side of the face box),
centered on the face and translated minimally to stay inside the image. When
the requested size does not fit, the largest feasible size at the same
aspect is substituted. Exact duplicate rectangles collapse, so a single
image yields at most 25 crop specs. Horizontal flips are drawn per sample,
not enumerated into the plan.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import MetaLoraError

ASPECTS: list[tuple[str, int, int]] = [
    ("16:9", 16, 9),
    ("4:3", 4, 3),
    ("1:1", 1, 1),
    ("3:4", 3, 4),
    ("9:16", 9, 16),
]
MULTIPLIERS: list[float] = [1.5, 2.0, 2.5, 3.5, 4.5]


@dataclass(frozen=True)
class FaceBox:
    x: int
    y: int
    w: int
    h: int

    def __post_init__(self):
        if self.w <= 0 or self.h <= 0:
            raise MetaLoraError(f"face box must have positive size, got {self.w}x{self.h}")

    @property
    def f_long(self) -> int:
        return max(self.w, self.h)

    @property
    def center(self) -> tuple[float, float]:
        return (self.x + self.w / 2.0, self.y + self.h / 2.0)


@dataclass(frozen=True)
class CropSpec:
    x: int
    y: int
    w: int
    h: int
    aspect: str
    scale_multiplier: float
    flip_allowed: bool = True

    @property
    def rect(self) -> tuple[int, int, int, int]:
        return (self.x, self.y, self.w, self.h)


@dataclass(frozen=True)
class View:
    rect: tuple[int, int, int, int]
    flip: bool


def _crop_dims(aspect_w: int, aspect_h: int, short_side: int) -> tuple[int, int]:
    """(w, h) of a crop with the given aspect whose short side is short_side."""
    if aspect_w >= aspect_h:  # landscape or square: height is the short side
        return round(short_side * aspect_w / aspect_h), short_side
    return short_side, round(short_side * aspect_h / aspect_w)


def _max_short_side(aspect_w: int, aspect_h: int, image_w: int, image_h: int) -> int:
    """Largest short side for which the aspect still fits inside the image."""
    def fits(s: int) -> bool:
        w, h = _crop_dims(aspect_w, aspect_h, s)
        return w <= image_w and h <= image_h

    if aspect_w >= aspect_h:
        s = min(image_h, int(image_w * aspect_h / aspect_w))
    else:
        s = min(image_w, int(image_h * aspect_w / aspect_h))
    # rounding in _crop_dims moves the long side by up to a pixel either way;
    # settle on the largest short side that actually fits
    while s > 1 and not fits(s):
        s -= 1
    while fits(s + 1) and s + 1 <= min(image_w, image_h):
        s += 1
    return s


def plan_crops(image_w: int, image_h: int, face: FaceBox) -> list[CropSpec]:
    """Deterministic crop plan: aspect-major, multiplier-minor, deduplicated."""
    if max(image_w, image_h) >= 2**31:  # PNG's limit; near 1e30 the side search never ends
        raise MetaLoraError("image sides of 2**31 pixels or more are not supported")
    if face.x < 0 or face.y < 0 or face.x + face.w > image_w or face.y + face.h > image_h:
        raise MetaLoraError(
            f"face box {face} does not fit inside {image_w}x{image_h} image")
    cx, cy = face.center
    specs: list[CropSpec] = []
    seen: set[tuple[int, int, int, int]] = set()
    for aspect, aw, ah in ASPECTS:
        max_s = _max_short_side(aw, ah, image_w, image_h)
        for mult in MULTIPLIERS:
            requested = round(mult * face.f_long)
            s = min(max(requested, 1), max_s)
            w, h = _crop_dims(aw, ah, s)
            x = round(cx - w / 2.0)
            y = round(cy - h / 2.0)
            x = min(max(x, 0), image_w - w)
            y = min(max(y, 0), image_h - h)
            rect = (x, y, w, h)
            if rect in seen:
                continue
            seen.add(rect)
            specs.append(CropSpec(x=x, y=y, w=w, h=h, aspect=aspect,
                                  scale_multiplier=mult))
    return specs


def sample_view(spec: CropSpec, rng: np.random.Generator) -> View:
    """Concrete training view: the spec's rect plus a fair-coin flip flag."""
    flip = bool(rng.random() < 0.5) if spec.flip_allowed else False
    return View(rect=spec.rect, flip=flip)


def plan_to_jsonl(specs: list[CropSpec]) -> str:
    return "".join(json.dumps(vars(s)) + "\n" for s in specs)
