"""Every way the solver registry invariant can be broken."""

SOLVER_CHOICES = ("linprog", "simplex", "linprog_batch")  # re-listed literal


def run(backend: str = "sinkhorn") -> int:  # unknown default
    if backend == "linprog-batch":  # typo never in the registry
        return 1
    return 0


def add_cli_args(parser):
    parser.add_argument("--emd-backend", choices=("auto", "linprog"))  # re-list


def configure(engine):
    engine.reset(backend="simplexx")  # typo'd keyword argument
