"""Hardware models of the paper's evaluation platform.

Two servers — an APM X-Gene 1 class ARM board (8 cores @ 2.4 GHz) and
an Intel Xeon E5-1650 v2 class x86 server (6 cores @ 3.5 GHz,
hyper-threading disabled as in the paper) — joined by a Dolphin PXH810
PCIe interconnect (64 Gb/s).  Power is observable through RAPL-like
on-package sensors and an external shunt-resistor model, both sampled
at 100 Hz by :mod:`repro.telemetry`.
"""

from repro._lazy import lazy_exports

__getattr__ = lazy_exports(__name__, {
    ".interconnect": "make_dolphin_pxh810",
    ".machine": "make_xeon_e5_1650v2 make_xgene1",
    ".mcpat": "project_finfet",
})
