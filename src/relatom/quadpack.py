"""QUADPACK's adaptive quadrature ``dqagse``, in plain Python floats.

:func:`relatom.numerics.integrate_1d` runs it.  ``numerics`` imports this
module on its first adaptive integral, so commands that integrate nothing
adaptively never load it.
"""

from __future__ import annotations

import math
import sys

__all__ = ["MESSAGES", "qagse"]

# QUADPACK's dqk21 rule: Kronrod abscissae (the odd entries are the 10-point
# Gauss ones, the last the centre), Kronrod weights, Gauss weights
_XGK = (0.9956571630258081, 0.9739065285171717, 0.9301574913557082, 0.8650633666889845,
        0.7808177265864169, 0.6794095682990244, 0.5627571346686047, 0.4333953941292472,
        0.2943928627014602, 0.14887433898163122, 0.0)
_WGK = (0.011694638867371874, 0.032558162307964725, 0.054755896574351995, 0.07503967481091996,
        0.0931254545836976, 0.10938715880229764, 0.12349197626206584, 0.13470921731147334,
        0.14277593857706009, 0.14773910490133849, 0.1494455540029169)
_WG = (0.06667134430868814, 0.1494513491505806, 0.21908636251598204, 0.26926671930999635,
       0.29552422471475287)
_EPMACH, _UFLOW, _OFLOW = sys.float_info.epsilon, sys.float_info.min, sys.float_info.max
# scipy's text for each error flag of dqagse
MESSAGES = {
    1: "The maximum number of subdivisions ({limit}) has been achieved.\n  If increasing the limit "
       "yields no improvement it is advised to analyze \n  the integrand in order to determine the "
       "difficulties.  If the position of a \n  local difficulty can be determined (singularity, "
       "discontinuity) one will \n  probably gain from splitting up the interval and calling the "
       "integrator \n  on the subranges.  Perhaps a special-purpose integrator should be used.",
    2: "The occurrence of roundoff error is detected, which prevents \n  the requested tolerance "
       "from being achieved.  The error may be \n  underestimated.",
    3: "Extremely bad integrand behavior occurs at some points of the\n  integration interval.",
    4: "The algorithm does not converge.  Roundoff error is detected\n  in the extrapolation "
       "table.  It is assumed that the requested tolerance\n  cannot be achieved, and that the "
       "returned result (if full_output = 1) is \n  the best which can be obtained.",
    5: "The integral is probably divergent, or slowly convergent.",
    6: "If 'epsabs'<=0, 'epsrel' must be greater than both 5e-29 and 50*(machine epsilon).",
}



def qagse(f, a, b, epsabs, epsrel, limit):
    """(result, abserr, neval, ier) of QUADPACK's dqagse on the finite (a, b):
    21-point Gauss-Kronrod bisection of the interval with the largest error,
    with Wynn's epsilon extrapolation once the smallest intervals dominate.

    This is the Fortran line for line in plain floats, so it returns what
    ``scipy.integrate.quad(f, a, b, epsabs, epsrel, limit, full_output=1)``
    does, to the last bit; ``ier`` is its error flag (0 on success, 6 for
    tolerances it refuses).  The lists are 1-based, as in the Fortran.
    """
    if epsabs <= 0.0 and epsrel < max(50.0 * _EPMACH, 5e-29):
        return 0.0, 0.0, 0, 6
    result, abserr, defabs, resabs = _qk21(f, a, b)
    dres = abs(result)
    errbnd = max(epsabs, epsrel * dres)
    ier = 1 if limit == 1 else 2 if abserr <= 100.0 * _EPMACH * defabs and abserr > errbnd else 0
    if ier != 0 or (abserr <= errbnd and abserr != resabs) or abserr == 0.0:
        return result, abserr, 21, ier
    alist, blist, rlist, elist = ([0.0, x] + [0.0] * (limit - 1) for x in (a, b, result, abserr))
    iord = [0, 1] + [0] * (limit - 1)
    rlist2, res3la = [0.0, result] + [0.0] * 51, [0.0] * 4
    errmax, maxerr, area, errsum, abserr = abserr, 1, result, abserr, _OFLOW
    nrmax, nres, numrl2, ktmin, extrap, noext = 1, 0, 2, 0, False, False
    iroff1 = iroff2 = iroff3 = ierro = 0
    small = erlarg = ertest = correc = 0.0
    ksgn = 1 if dres >= (1.0 - 50.0 * _EPMACH) * defabs else -1
    for last in range(2, limit + 1):
        # bisect the interval with the nrmax-th largest error estimate
        a1, b1, b2 = alist[maxerr], 0.5 * (alist[maxerr] + blist[maxerr]), blist[maxerr]
        a2, erlast = b1, errmax
        area1, error1, _, defab1 = _qk21(f, a1, b1)
        area2, error2, _, defab2 = _qk21(f, a2, b2)
        area12, erro12 = area1 + area2, error1 + error2
        errsum = errsum + erro12 - errmax
        area = area + area12 - rlist[maxerr]
        if defab1 != error1 and defab2 != error2:
            if abs(rlist[maxerr] - area12) <= 1e-5 * abs(area12) and erro12 >= 0.99 * errmax:
                if extrap:
                    iroff2 += 1
                else:
                    iroff1 += 1
            if last > 10 and erro12 > errmax:
                iroff3 += 1
        rlist[maxerr], rlist[last] = area1, area2
        errbnd = max(epsabs, epsrel * abs(area))
        ier = 2 if iroff1 + iroff2 >= 10 or iroff3 >= 20 else ier
        ierro = 3 if iroff2 >= 5 else ierro
        ier = 1 if last == limit else ier
        if max(abs(a1), abs(b2)) <= (1.0 + 100.0 * _EPMACH) * (abs(a2) + 1000.0 * _UFLOW):
            ier = 4  # the interval to bisect is down to rounding
        if error2 > error1:
            alist[maxerr], alist[last], blist[last] = a2, a1, b1
            rlist[maxerr], rlist[last] = area2, area1
            elist[maxerr], elist[last] = error2, error1
        else:
            alist[last], blist[maxerr], blist[last] = a2, b1, b2
            elist[maxerr], elist[last] = error1, error2
        maxerr, errmax, nrmax = _qpsrt(limit, last, maxerr, elist, iord, nrmax)
        if errsum <= errbnd or ier != 0:
            break
        if last == 2:
            small, erlarg, ertest, rlist2[2] = abs(b - a) * 0.375, errsum, errbnd, area
            continue
        if noext:
            continue
        erlarg = erlarg - erlast
        if abs(b1 - a1) > small:
            erlarg = erlarg + erro12
        if not extrap:
            # extrapolate only once the interval to bisect next is the smallest
            if abs(blist[maxerr] - alist[maxerr]) > small:
                continue
            extrap, nrmax = True, 2
        if not (ierro == 3 or erlarg <= ertest):
            # bisect the larger intervals (errors summing to erlarg) first
            jupbnd = limit + 3 - last if last > 2 + limit // 2 else last
            large = False
            for _ in range(nrmax, jupbnd + 1):
                maxerr = iord[nrmax]
                errmax = elist[maxerr]
                large = abs(blist[maxerr] - alist[maxerr]) > small
                if large:
                    break
                nrmax += 1
            if large:
                continue
        numrl2 += 1
        rlist2[numrl2] = area
        numrl2, reseps, abseps, nres = _qelg(numrl2, rlist2, res3la, nres)
        ktmin += 1
        ier = 5 if ktmin > 5 and abserr < 1e-3 * errsum else ier
        if not abseps >= abserr:
            ktmin, abserr, result, correc = 0, abseps, reseps, erlarg
            ertest = max(epsabs, epsrel * abs(reseps))
            if abserr <= ertest:
                break
        noext = noext or numrl2 == 1
        if ier == 5:
            break
        maxerr = iord[1]  # go on with the smallest intervals
        errmax = elist[maxerr]
        nrmax, extrap, small, erlarg = 1, False, small * 0.5, errsum
    # the sum over the intervals, unless the extrapolation did better
    sum_up = errsum <= errbnd or abserr == _OFLOW
    if not sum_up:
        test_divergence = True
        if ier + ierro != 0:
            if ierro == 3:
                abserr = abserr + correc
            if ier == 0:
                ier = 3
            if result != 0.0 and area != 0.0:
                sum_up = abserr / abs(result) > errsum / abs(area)
            else:
                sum_up, test_divergence = abserr > errsum, area != 0.0
        if not sum_up and test_divergence and not (
                ksgn == -1 and max(abs(result), abs(area)) <= defabs * 0.01):
            ratio = result / area if area else result * math.inf * math.copysign(1.0, area)
            if 0.01 > ratio or ratio > 100.0 or errsum > abs(area):
                ier = 6
    if sum_up:
        result = 0.0
        for k in range(1, last + 1):
            result = result + rlist[k]
        abserr = errsum
    return result, abserr, 42 * last - 21, ier - 1 if ier > 2 else ier


def _qk21(f, a, b):
    """(result, abserr, resabs, resasc) of QUADPACK's dqk21 on (a, b)."""
    centr, hlgth = 0.5 * (a + b), 0.5 * (b - a)
    fc = float(f(centr))
    resg, resk = 0.0, _WGK[10] * fc
    resabs = abs(resk)
    fv1, fv2 = [0.0] * 10, [0.0] * 10
    for j in (1, 3, 5, 7, 9, 0, 2, 4, 6, 8):  # the Gauss abscissae first
        absc = hlgth * _XGK[j]
        fv1[j] = fval1 = float(f(centr - absc))
        fv2[j] = fval2 = float(f(centr + absc))
        fsum = fval1 + fval2
        if j % 2:
            resg = resg + _WG[j // 2] * fsum
        resk = resk + _WGK[j] * fsum
        resabs = resabs + _WGK[j] * (abs(fval1) + abs(fval2))
    reskh = resk * 0.5
    resasc = _WGK[10] * abs(fc - reskh)
    for j in range(10):
        resasc = resasc + _WGK[j] * (abs(fv1[j] - reskh) + abs(fv2[j] - reskh))
    resabs, resasc = resabs * abs(hlgth), resasc * abs(hlgth)
    abserr = abs((resk - resg) * hlgth)
    if resasc != 0.0 and abserr != 0.0:
        abserr = resasc * min(1.0, (200.0 * abserr / resasc) ** 1.5)
    if resabs > _UFLOW / (50.0 * _EPMACH):
        abserr = max(_EPMACH * 50.0 * resabs, abserr)
    return resk * hlgth, abserr, resabs, resasc


def _qpsrt(limit, last, maxerr, elist, iord, nrmax):
    """QUADPACK's dqpsrt: after the bisection of interval ``maxerr`` into
    ``maxerr`` and ``last``, keep ``iord`` listing the intervals by falling
    error; returns the next (maxerr, errmax, nrmax)."""
    if last <= 2:
        iord[1], iord[2] = 1, 2
    else:
        errmax = elist[maxerr]
        while nrmax > 1 and not errmax <= elist[iord[nrmax - 1]]:
            iord[nrmax] = iord[nrmax - 1]
            nrmax -= 1
        # only as many entries as bisections remain are kept in order
        jupbn = limit + 3 - last if last > limit // 2 + 2 else last
        errmin, jbnd = elist[last], jupbn - 1
        for i in range(nrmax + 1, jbnd + 1):
            if errmax >= elist[iord[i]]:
                iord[i - 1] = maxerr
                k = jbnd
                while k >= i and not errmin < elist[iord[k]]:
                    iord[k + 1] = iord[k]
                    k -= 1
                iord[k + 1] = last
                break
            iord[i - 1] = iord[i]
        else:
            iord[jbnd], iord[jupbn] = maxerr, last
    maxerr = iord[nrmax]
    return maxerr, elist[maxerr], nrmax


def _qelg(n, epstab, res3la, nres):
    """QUADPACK's dqelg: Wynn's epsilon algorithm on the ``n`` partial sums in
    ``epstab`` (1-based, updated in place, as are the last three results in
    ``res3la``); returns (n, result, abserr, nres)."""
    nres += 1
    abserr, result = _OFLOW, epstab[n]
    if n >= 3:
        epstab[n + 2], epstab[n] = epstab[n], _OFLOW
        num = k1 = n
        newelm = (n - 1) // 2
        for i in range(1, newelm + 1):
            e0, e1, e2 = epstab[k1 - 2], epstab[k1 - 1], epstab[k1 + 2]
            e1abs = abs(e1)
            delta2, delta3 = e2 - e1, e1 - e0
            err2, tol2 = abs(delta2), max(abs(e2), e1abs) * _EPMACH
            err3, tol3 = abs(delta3), max(e1abs, abs(e0)) * _EPMACH
            if err2 <= tol2 and err3 <= tol3:  # e0, e1, e2 agree: converged
                return n, e2, max(err2 + err3, 5.0 * _EPMACH * abs(e2)), nres
            e3, epstab[k1] = epstab[k1], e1
            delta1 = e1 - e3
            err1, tol1 = abs(delta1), max(e1abs, abs(e3)) * _EPMACH
            if err1 <= tol1 or err2 <= tol2 or err3 <= tol3:
                n = i + i - 1  # two elements nearly equal: cut the table here
                break
            ss = 1.0 / delta1 + 1.0 / delta2 - 1.0 / delta3
            if not abs(ss * e1) > 1e-4:
                n = i + i - 1  # irregular behaviour: cut the table here
                break
            res = epstab[k1] = e1 + 1.0 / ss
            k1 -= 2
            error = err2 + abs(res - e2) + err3
            if not error > abserr:
                abserr, result = error, res
        n = 49 if n == 50 else n
        ib = 2 if num % 2 == 0 else 1
        for ib in range(ib, ib + 2 * newelm + 1, 2):
            epstab[ib] = epstab[ib + 2]
        if num != n:
            epstab[1:n + 1] = epstab[num - n + 1:num + 1]
        if nres < 4:
            res3la[nres], abserr = result, _OFLOW
        else:
            abserr = abs(result - res3la[3]) + abs(result - res3la[2]) + abs(result - res3la[1])
            res3la[1:] = res3la[2], res3la[3], result
    return n, result, max(abserr, 5.0 * _EPMACH * abs(result)), nres
