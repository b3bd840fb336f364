"""Tier-1 tests; a package, so that the test helper tests.oracles has a name of its own."""
