"""Run manifests: provenance record written next to every CSV."""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from .. import __version__
from ..geometry import BOUNDARY_TOL, GRAZING_TOL
from ..xray import QUAD_TOL
from .config import canonical_text, config_hash

#: Numerical tolerances the operations commit to; recorded per run.
TOLERANCES = {
    "boundary_tol": BOUNDARY_TOL,
    "grazing_tol": GRAZING_TOL,
    "quad_tol": QUAD_TOL,
    "slice_identity_tol": 1e-6,
    "hermitian_tol": 1e-10,
    "direction_identity_tol": 1e-12,
}


@dataclass
class RunManifest:
    subcommand: str
    cfg: dict
    seed: int
    stages: list = field(default_factory=list)
    diagnostics: list = field(default_factory=list)   # (name, {key: value})
    _t0: float = field(default_factory=time.perf_counter)

    @property
    def hash(self) -> str:
        return config_hash(self.cfg, self.seed)

    def stage(self, name: str) -> None:
        self.stages.append((name, time.perf_counter() - self._t0))
        self._t0 = time.perf_counter()

    def write(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(f"subcommand = {self.subcommand}\n")
            fh.write(f"version = {__version__}\n")
            fh.write(f"config_hash = {self.hash}\n")
            fh.write(f"seed = {self.seed}\n")
            fh.write("[config]\n")
            fh.write(canonical_text(self.cfg, self.seed))
            fh.write("[tolerances]\n")
            for k, v in TOLERANCES.items():
                fh.write(f"{k} = {v!r}\n")
            if self.diagnostics:
                fh.write("[diagnostics]\n")
                for name, values in self.diagnostics:
                    fh.write(f"{name} = " + " ".join(
                        f"{k}={v!r}" for k, v in values.items()) + "\n")
            fh.write("[wall_clock_seconds]\n")
            for name, dt in self.stages:
                fh.write(f"{name} = {dt:.3f}\n")
