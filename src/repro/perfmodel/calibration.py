"""Shared calibration: solver compute profiles and model fudge factors.

One set of coefficients drives both execution modes (numeric DES and
analytic), so cross-validation between them is meaningful.  The values are
chosen to land the simulated Marconi A3 on the paper's reported ratios:

* **per-core rates** — IMe's unblocked column sweeps stream well (slightly
  higher raw flop rate) but its 3/2·n³ flop count makes it ~2.2× slower
  than ScaLAPACK's 2/3·n³ at equal deployment, which with the power gap
  below yields the §5.4 *total-energy* gap of 50–60 %;
* **DRAM intensity** — IMe's rank-1 sweeps re-touch the table every level
  (0.35 B/flop) while ScaLAPACK's blocked BLAS-3 reuses cache (0.12
  B/flop); through the DRAM power model this produces the large DRAM-power
  gap (§5.4, up to ~42 %) and a node-power gap of 12–18 % (§5.2/Fig. 6);
* **pivot-chain factor** — the effective per-message cost of ScaLAPACK's
  per-column pivoting chain (max-loc reduction + row swap + pivot-row
  broadcast, across strided process columns that defeat SMP-aware
  collectives).  The default 2.1 reproduces three of the paper's four IMe
  *time* wins at {576, 1296} ranks for n ∈ {8640, 17280} (§5.2);
  ScaLAPACK stays ahead at (17280, 576), a known deviation.  The verdict
  at (8640, 576) rests on this factor.  Analytic T there (FULL shape,
  one unjittered repetition): IMe 0.570 s; ScaLAPACK 0.677 s at 2.1,
  0.575 s at 1.7 and 0.397 s at 1.0.  IMe wins only above about 1.68;
  1.7 keeps that win by under 1 % and loses (17280, 1296), which needs
  more than 1.94.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class ComputeProfile:
    """How a rank's computation maps onto time, power, and DRAM traffic."""

    #: sustained useful flop/s of one core running this code
    eff_flops_per_core: float = 12.0e9
    #: DRAM bytes moved per useful flop (cache-miss traffic, not loads)
    dram_bytes_per_flop: float = 0.10
    #: core floating-point utilization while computing (power model input)
    flop_util: float = 0.65
    #: core memory-subsystem utilization while computing
    mem_util: float = 0.30

    def duration(self, flops: float, freq_ratio: float = 1.0) -> float:
        if flops < 0:
            raise ValueError(f"negative flops: {flops}")
        return flops / (self.eff_flops_per_core * freq_ratio)


#: IMe: unblocked, memory-intensive level sweeps.
IME_PROFILE = ComputeProfile(
    eff_flops_per_core=13.0e9,
    dram_bytes_per_flop=0.35,
    flop_util=0.70,
    mem_util=0.75,
)

#: ScaLAPACK: blocked BLAS-3 kernels, cache-friendly.
SCALAPACK_PROFILE = ComputeProfile(
    eff_flops_per_core=12.0e9,
    dram_bytes_per_flop=0.12,
    flop_util=0.75,
    mem_util=0.25,
)

_PROFILES = {
    "ime": IME_PROFILE,
    "scalapack": SCALAPACK_PROFILE,
}


def profile_for(algorithm: str) -> ComputeProfile:
    """Compute profile for an algorithm name ('ime' or 'scalapack')."""
    try:
        return _PROFILES[algorithm.lower()]
    except KeyError:
        raise ValueError(
            f"unknown algorithm {algorithm!r}; expected one of "
            f"{sorted(_PROFILES)}"
        )


@dataclass(frozen=True)
class Calibration:
    """Model factors shared by the analytic evaluator."""

    ime_profile: ComputeProfile = IME_PROFILE
    scalapack_profile: ComputeProfile = SCALAPACK_PROFILE
    #: multiplier on ScaLAPACK's per-column pivoting latency chain —
    #: effective per-message software cost of PxSWAP/IxAMAX over raw fabric
    #: latency
    scal_pivot_factor: float = 2.1
    #: ScaLAPACK block size (the paper does not report it; 64 is the
    #: conventional choice for Skylake)
    scal_nb: int = 64
    #: fraction of IMe's per-level collective chain (column bcast +
    #: last-row gather + h bcast) on the critical path; 1.0 = fully
    #: serialized, lower values model software pipelining across levels
    ime_overlap_factor: float = 1.0
    #: links a large tree-broadcast payload crosses on the critical path
    bcast_pipeline_links: float = 1.0
    #: include ScaLAPACK's block-cyclic load-imbalance factor
    #: (1 + nb·√P/n)² on compute — significant when local blocks get small
    scal_imbalance: bool = True


DEFAULT_CALIBRATION = Calibration()
