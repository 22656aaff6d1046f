"""The repo's benchmark: four workloads, one ledger.  See README.md."""
