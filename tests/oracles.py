"""The generic step loops, the test oracles of the generated runs.

run_fixed is make_rk4_run's oracle on partial(rk4_step, make_rhs) with
make_guard after every step, run_adaptive make_adaptive_run's on
partial(rkf45_step, make_rhs) with make_guard.  The program steps only the
generated runs; these loops take any step function, so tests also drive
them on toy flows.
"""

import math

from semiosc import dynamics
from semiosc.dynamics import SINGULAR_STEP, STATUS_SINGULARITY, STATUS_STEPFAIL


def run_fixed(step, y, h, n, sample_every=1, guard=None, on_sample=None,
              i0=0):
    """The fixed-step loop: n steps y <- step(t, y, h) after the first i0.

    Step i of the run is step i0 + i of the grid and ends at t = (i0 + i) * h,
    so a run continued from step i0 reports the times a run from 0 would.
    After each step guard(t, y) may return an abort (status, t, reason) to
    stop; after every sample_every-th step and the last one so may
    on_sample(t, y).  A step that raises ZeroDivisionError or OverflowError
    stops the run as a singularity at the step's start time.  Returns
    (y, abort): the last state reached and None, or the abort that stopped
    the run, unchanged.
    """
    t = i0 * h
    for i in range(1, n + 1):
        try:
            y = step(t, y, h)
        except (ZeroDivisionError, OverflowError):
            return y, (STATUS_SINGULARITY, t, SINGULAR_STEP)
        t = (i0 + i) * h
        if guard is not None:
            hit = guard(t, y)
            if hit is not None:
                return y, hit
        if on_sample is not None and (i % sample_every == 0 or i == n):
            hit = on_sample(t, y)
            if hit is not None:
                return y, hit
    return y, None


def run_adaptive(step, y, t_end, h0, rtol, atol, sample_every, guard,
                 on_sample):
    """The generic adaptive loop, make_adaptive_run's oracle: embedded
    steps (y5, err) = step(t, y, h) from t = 0 to t_end, from h = h0,
    controlled by the rms of err against atol + rtol * max|y|.

    guard and on_sample work as in run_fixed, counting accepted steps; a
    time is sampled at most once.  A step that raises stops the run as a
    singularity; a step below 1e-14 * max(1, |t|), or
    dynamics.MAX_STEP_ATTEMPTS accepted and rejected steps short of t_end,
    as a step failure.  So does a run whose progress in t over the last
    dynamics.PROGRESS_WINDOW attempts, kept up for the attempts left,
    falls short of t_end, checked after every window of attempts.  Both
    constants are read from the package when the run starts, so a test
    that patches them there bounds both runs.  Returns (y, abort) as
    run_fixed does, the abort as one (status, t, reason).
    """
    isfinite, sqrt, inf = math.isfinite, math.sqrt, math.inf
    max_attempts, window = dynamics.MAX_STEP_ATTEMPTS, dynamics.PROGRESS_WINDOW
    width = len(y)
    t = t_mark = 0.0
    h = min(h0, t_end)
    accepted = attempts = 0
    last_sampled_t = 0.0
    check_at = min(window, max_attempts)
    while t < t_end:
        if attempts == check_at:
            # the window's progress, kept up over the attempts left, is
            # short of t_end - t; with no attempts left, always
            if (t - t_mark) * (max_attempts - attempts) < (t_end - t) * window:
                return y, (STATUS_STEPFAIL, t, f"{attempts} step attempts "
                           f"did not reach t_end = {t_end}")
            t_mark, check_at = t, min(attempts + window, max_attempts)
        attempts += 1
        clamped = h >= t_end - t
        if clamped:
            h = t_end - t
        try:
            ynew, err = step(t, y, h)
        except (ZeroDivisionError, OverflowError):
            return y, (STATUS_SINGULARITY, t, SINGULAR_STEP)
        enorm = inf
        try:
            acc = 0.0
            for e, a, b in zip(err, y, ynew):
                if not (isfinite(e) and isfinite(b)):
                    break
                acc += (e / (atol + rtol * max(abs(a), abs(b)))) ** 2
            else:
                enorm = sqrt(acc / width)
        except OverflowError:
            pass
        if enorm > 1.0:
            h *= 0.2 if not isfinite(enorm) else max(0.2, 0.9 * enorm ** -0.2)
            if h < 1e-14 * max(1.0, abs(t)):
                return y, (STATUS_STEPFAIL, t, f"step size underflow at t={t}")
            continue
        t = t_end if clamped else t + h
        y = ynew
        accepted += 1
        hit = guard(t, y)
        if hit is None and (accepted % sample_every == 0
                            or t >= t_end) and t != last_sampled_t:
            hit = on_sample(t, y)
            last_sampled_t = t
        if hit is not None:
            return y, hit
        if enorm > 0.0:
            h *= min(5.0, max(0.2, 0.9 * enorm ** -0.2))
        else:
            h *= 5.0
    return y, None
