"""Repo-specific static analysis: the determinism & lifecycle linter.

The runtime parity and golden suites catch a contract violation only
after someone writes one *and* a test exercises it; this package makes
the repo's three load-bearing disciplines machine-checked on every
tree, before anything runs:

* **determinism hygiene** (``det-*``) — canonical modules draw
  randomness only from the seeded ``Lcg48`` substreams, never read
  wall clocks, and never let set-iteration order or ``id()`` reach an
  answer;
* **shared-memory lifecycle** (``shm-*``) — every segment allocation
  has a visible close/unlink path and every attach routes through
  ``shmplane.attach_segment`` (the resource-tracker bug class);
* **async hygiene** (``async-*``) — nothing blocks the serving tier's
  event loop;
* **API surface** (``api-*``) + general hygiene (``hyg-*``) —
  ``__all__`` stays honest, deprecated shims warn, broad excepts
  don't swallow silently.

Entry points: ``repro lint`` (the CLI subcommand) and ``python -m
repro.analysis``, both through :mod:`.engine`, whose
:func:`~.engine.lint_source` serves embedding (the docs harness lints
documented code blocks with it).  The package imports nothing eagerly,
so the CLI's argument wiring (:mod:`.cliargs`) does not load the rules.
Escape hatches:
``# repro: allow[rule-id]`` pragmas and the committed baseline file —
see docs/ARCHITECTURE.md, "Correctness tooling".
"""
