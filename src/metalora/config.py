"""The run settings: each config key's type, default and bounds, stated once.

:func:`metalora.cli.parse_config` reads a config file against this table, every
library default that stands for a key reads it through :func:`default` (a stage
config's field through :func:`setting`), and only :func:`check` enforces the bounds,
for the CLI and the library alike. The rank rule is :func:`metalora.adapter.check_ranks`'.
"""

from __future__ import annotations

import math
import sys
from dataclasses import field, fields

from .errors import ConfigError

# key -> (type, default, lowest, highest): a value must be finite and in [lowest,
# highest], bounds may depend on earlier keys, and unknown keys are rejected.
# Every size and count but the seed ends at MAX_SIZE, far above any config in
# use: a larger one is refused here, not by numpy, whose array sizes it overflows.
MAX_SIZE = 10**6
CONFIG_SCHEMA: dict[str, tuple] = {
    "seed": (int, 0, 0, math.inf),
    "lr": (float, 4e-3, 0.0, math.inf),
    "weight_decay": (float, 0.0, 0.0, math.inf),
    # dataset / model geometry
    "n_identities": (int, 16, 2, MAX_SIZE),
    "heldout_identities": (int, 4, 1, lambda c: c["n_identities"] - 1),
    "latent_dim": (int, 32, 1, MAX_SIZE),
    "hidden_dim": (int, 64, 1, MAX_SIZE),
    "samples_per_identity": (int, 20, 2, MAX_SIZE),  # a reference and a test sample
    "n_prompts": (int, 4, 1, MAX_SIZE),
    "timesteps": (int, 50, 1, MAX_SIZE),
    "single_prototype": (bool, False, False, True),
    # stage-1
    "q_total": (int, 3000, 1, MAX_SIZE),
    "batch_size": (int, 4, 1, MAX_SIZE),
    "r1": (int, 16, 1, MAX_SIZE),
    "r2": (int, 1, 1, MAX_SIZE),
    "identities_per_bucket": (int, 4, 1, MAX_SIZE),
    "warm_up_fraction": (float, 0.4, 0.0, 1.0),
    "warm_up_every_entry": (bool, True, False, True),
    # base pretraining
    "pretrain_lr": (float, 2e-3, 0.0, math.inf),
    "pretrain_batch_size": (int, 8, 1, MAX_SIZE),
    "pretrain_loss_threshold": (float, 0.22, 0.0, math.inf),
    "pretrain_max_iters": (int, 15000, 1, MAX_SIZE),
    # stage-2 / speed experiment
    "q_st2": (int, 375, 1, MAX_SIZE),
    "stage2_lr": (float, 1e-2, 0.0, math.inf),
    "view_strength": (float, 0.05, 0.0, math.inf),  # latent perturbation per view
    "tau_fraction": (float, 0.5, 0.0, 1.0),  # speed-experiment loss threshold
    "smoothing_window": (int, 15, 1, MAX_SIZE),
    "speed_seeds": (int, 5, 3, MAX_SIZE),
    "target_identity": (int, -1, -1, lambda c: c["n_identities"] - 1),  # -1: first held-out
}


def default(key: str):
    """The default of the config key ``key``."""
    return CONFIG_SCHEMA[key][1]


def setting(key: str):
    """A stage config's dataclass field that stands for the config key ``key``:
    its default is the key's, and :meth:`Settings.from_config` sets it from
    the key's value."""
    return field(default=default(key), metadata={"key": key})


def check(values: dict) -> None:
    """:class:`ConfigError` unless each key of ``values`` holds a value of its
    type in its bounds: an int key takes an int, a float key an int or a float,
    a bool key a bool, and no other key a bool."""
    for key, val in values.items():
        typ, _default, *bounds = CONFIG_SCHEMA[key]
        kinds = (int, float) if typ is float else typ
        if isinstance(val, bool) != (typ is bool) or not isinstance(val, kinds):
            raise ConfigError(f"{key} = {val!r} is not of type {typ.__name__}")
        lo, hi = (b(values) if callable(b) else b for b in bounds)
        # an int beyond float range is refused like inf (math.isfinite cannot take it)
        if not (lo <= val <= hi and abs(val) <= sys.float_info.max):
            raise ConfigError(f"{key} = {val} is not a finite number in [{lo}, {hi}]")


class Settings:
    """A stage config of :func:`setting` fields, checked as it is built or replaced."""

    def __post_init__(self):
        check({f.metadata["key"]: getattr(self, f.name) for f in fields(self)})

    @classmethod
    def from_config(cls, cfg: dict):
        """The stage config with each field set from the run config's key it stands for."""
        return cls(**{f.name: cfg[f.metadata["key"]] for f in fields(cls)})
