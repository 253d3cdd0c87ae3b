"""Repo-level performance benchmark (see ``perf/README.md``)."""
