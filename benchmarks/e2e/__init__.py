"""The layered end-to-end benchmark of the real query path (see README.md)."""
