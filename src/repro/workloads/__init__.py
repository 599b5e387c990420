"""Workload generators: correct clients, DoS attackers, canned scenarios."""

from .. import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "clients": ["CorrectWriter", "CorrectReader", "ZipfReader", "DosAttacker",
                "DosReader"],
    "scenarios": ["HotspotScenario", "build_hotspot_scenario",
                  "DisturbanceScenario", "build_disturbance_scenario",
                  "ContentionScenario", "build_contention_scenario",
                  "WriteScenario", "build_write_scenario", "DosScenario",
                  "build_dos_scenario"],
})
