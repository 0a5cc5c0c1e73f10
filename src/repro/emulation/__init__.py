"""Cross-ISA emulation baseline (Section 2, Figure 1).

The paper measures KVM/QEMU-style whole-system emulation as the
state-of-practice way to run a binary of one ISA on a machine of
another, and finds slowdowns of one to four orders of magnitude.  This
package models a 2016-era TCG dynamic binary translator:

* per-instruction-class expansion factors (soft-float FP is the
  catastrophic case),
* a translation cache with one-time per-block translation cost,
* single-threaded code generation/execution (pre-MTTCG TCG serialises
  guest CPUs), which is what makes multi-threaded guests so much worse.
"""

from repro._lazy import lazy_exports

__getattr__ = lazy_exports(__name__, {
    ".dbt": "TranslationCache expansion_profile",
    ".qemu": "emulation_warmup_seconds make_emulated_machine",
})
