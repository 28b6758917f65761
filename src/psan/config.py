"""Flat run configuration, loadable from JSON with strict key checking."""

import json
import string
from dataclasses import asdict, dataclass, fields
from typing import get_args

from .data import RenderOptions, atomic_write
from .decoder import DEFAULT_CHARSET
from .encoder import EncoderConfig


@dataclass
class ModelConfig:
    # architecture
    channels: int = 8
    num_scales: int = 3
    rus_per_rs: int = 5
    vab_enabled: bool = True
    vab_convs: int = 4
    max_length: int = 25
    hidden_size: int = 256
    embedding_dim: int = 256
    # data generation
    alphabet: str = string.ascii_lowercase + string.digits
    train_samples: int = 32
    label_min_len: int = 1
    label_max_len: int = 10
    noise: float = 0.05
    shear_deg: float = 8.0
    # optimization
    batch_size: int = 16
    epochs: int = 10
    max_steps: int | None = None
    seed: int = 0
    precision: str = "f32"

    def validate(self):
        for f in fields(self):
            value = getattr(self, f.name)
            kinds = get_args(f.type) or (f.type,)  # int | None -> (int, NoneType)
            accepted = kinds + (int,) if float in kinds else kinds
            if isinstance(value, bool) != (bool in kinds) or not isinstance(value, accepted):
                names = " or ".join("None" if k is type(None) else k.__name__ for k in kinds)
                raise ValueError(f"{f.name} must be {names}, got {value!r}")
        self.encoder_config().validate()
        if self.max_length < 2:
            raise ValueError(f"max_length must be >= 2, got {self.max_length}")
        if self.hidden_size < 1 or self.embedding_dim < 1:
            raise ValueError("hidden_size and embedding_dim must be >= 1")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if self.max_steps is not None and self.max_steps < 1:
            raise ValueError(f"max_steps must be >= 1, got {self.max_steps}")
        if self.precision not in ("f32", "f64"):
            raise ValueError(f"precision must be 'f32' or 'f64', got {self.precision!r}")
        if self.train_samples < 1:
            raise ValueError(f"train_samples must be >= 1, got {self.train_samples}")
        if not 1 <= self.label_min_len <= self.label_max_len:
            raise ValueError(f"bad label length range "
                             f"{self.label_min_len}..{self.label_max_len}")
        if self.label_max_len + 1 > self.max_length:
            raise ValueError(f"labels up to {self.label_max_len} chars need "
                             f"max_length >= {self.label_max_len + 1}")
        for ch in self.alphabet:
            if ch not in DEFAULT_CHARSET.chars:
                raise ValueError(f"alphabet character {ch!r} is outside the charset")
        return self

    def encoder_config(self):
        return EncoderConfig(base_channels=self.channels, num_scales=self.num_scales,
                             rus_per_rs=self.rus_per_rs, vab_enabled=self.vab_enabled,
                             vab_convs=self.vab_convs)

    def render_options(self):
        """The rendering knobs this config sets; every corpus built for it
        (fresh draws or a manifest) renders with these."""
        return RenderOptions(noise=self.noise, shear_deg=self.shear_deg)

    def to_dict(self):
        return asdict(self)

    @classmethod
    def from_dict(cls, d):
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(d) - known)
        if unknown:
            raise ValueError(f"unknown config keys: {', '.join(unknown)}")
        return cls(**d).validate()

    @classmethod
    def load(cls, path):
        with open(path, encoding="utf-8") as f:
            try:
                d = json.load(f)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}: invalid JSON ({exc})") from None
        if not isinstance(d, dict):
            raise ValueError(f"{path}: config must be a JSON object")
        return cls.from_dict(d)

    def save(self, path):
        with atomic_write(path, "w") as f:
            json.dump(self.to_dict(), f, indent=2, sort_keys=True)
            f.write("\n")
