"""Layered performance ledger: the benchmark the repository's performance
work is judged by.  See README.md in this directory."""
