"""Energy-measurement substrate: power model, RAPL MSRs, and a PAPI-like API.

The stack mirrors the real measurement chain the paper uses (§2.3):

``power_model``
    Analytic package/DRAM power as a function of active cores, their
    compute/memory intensity, and the DVFS frequency ratio.  This is the
    ground truth of the simulation — the thing real RAPL *estimates*.
``accounting``
    Activity integrators that turn begin/end activity intervals into
    cumulative joules per RAPL domain at any virtual time.
``msr``
    The Model-Specific-Register device: 32-bit wrap-around energy-status
    counters in RAPL energy units, updated on a ~1 ms quantum with jitter —
    reproducing the artefacts of the real interface.
``domains``
    RAPL domain naming (PKG/DRAM per package); imports nothing else, so
    the analytic evaluator names its joules without the DES stack.
``rapl``
    Per-socket RAPL packages and power-cap enforcement.
``papi``
    A PAPI-like layer: library/thread init, event sets, the ``powercap``
    component's ``ENERGY_UJ`` events, start/stop/read with wrap correction.
"""
