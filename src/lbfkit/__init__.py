"""lbfkit: verification toolkit for Lefschetz-Bott fibration computations.

Modules:

* ``poly``      -- the sparse exact polynomial kernel under exterior and blowup
* ``exterior``  -- symbolic exterior calculus engine (exact rationals)
* ``config``    -- model constants, smooth profiles on floats, ``DomainError``
* ``models``    -- named model forms and the identity checks over them
* ``transport`` -- parallel-transport ODE and monodromy profiles
* ``mcg``       -- Dehn-twist word calculus on fibered boundaries
* ``topo``      -- Euler-characteristic bookkeeping for fillings
* ``blowup``    -- exact polynomial blow-ups resolving A_k singularities
* ``contact``   -- contact profile functions and corner smoothing
* ``report``    -- the suite result every subcommand returns: gates, rows,
  stage timers
* ``cli``       -- the ``lbfkit`` entry point: option parsing, report
  rendering and exit codes

Each of ``models``, ``transport``, ``topo``, ``blowup`` and ``contact``
ends in the ``suite`` that one subcommand runs.
"""

__version__ = "0.1.0"
