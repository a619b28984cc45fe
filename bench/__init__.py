"""The repository's layered benchmark (see bench/README.md and BENCHMARK.json)."""
