"""Shared domain types: role-tagged token sets and selection results."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor import Tensor

ROLES = ("sem", "geo", "spatial3d", "obj3d", "geo3d", "agg3d",
         "dyn", "dep", "action", "instruction")


@dataclass
class TokenSet:
    """A token matrix [..., N, d] tagged with its role.

    Multi-view sets carry the view as a tensor axis: [B, V, N, d].
    """
    tokens: Tensor
    role: str

    def __post_init__(self):
        if self.role not in ROLES:
            raise ValueError(f"unknown token role {self.role!r}")

    @property
    def n_tokens(self) -> int:
        return self.tokens.shape[-2]

    @property
    def width(self) -> int:
        return self.tokens.shape[-1]


@dataclass
class SelectionResult:
    """Top-K retention outcome."""
    indices: np.ndarray              # [..., K], descending score, ties by ascending index
    selected: TokenSet | None = None  # the K gathered tokens; None in a per-view split
