"""cohscat benchmark harness (see README.md)."""
