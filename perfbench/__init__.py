"""End-to-end benchmark of the Hi-Rise simulator (see README.md)."""
