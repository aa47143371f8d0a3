"""Load generator, response checker and trace analysis of the repository
benchmark. The entry point is perfbench/run.py; see perfbench/README.md."""
