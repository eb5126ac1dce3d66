"""WHISPER benchmarks (Echo, Redis, YCSB, TPCC, ctree, hashmap)."""
