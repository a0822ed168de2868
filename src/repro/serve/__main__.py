"""``python -m repro.serve`` — the workload driver, without installing."""
from repro.serve.workload import main

if __name__ == "__main__":
    raise SystemExit(main())
