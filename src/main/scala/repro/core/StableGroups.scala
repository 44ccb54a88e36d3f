package repro.core

/** Stable h-clique group derivation — DeriveSG (Algorithm 2, lines 25–33).
  *
  * A stable group (Definition 6) w.r.t. a feasible (α, r) is a vertex set S
  * such that (1) every outside vertex has r strictly above max_S r or
  * strictly below min_S r, (2) higher-r outsiders put zero α into instances
  * touching S, and (3) members of S put zero α into instances reaching
  * lower-r outsiders. Theorem 4 then brackets every member's compact
  * number: min_S r ≤ φ_h(v) ≤ max_S r.
  *
  * Instead of the paper's accumulate-and-recheck loop over TentativeGD
  * blocks (which is O(#blocks · |Ψ|h)), we mark *clean boundaries* in the
  * r-descending vertex order in one pass:
  *
  *  - boundary e (between sorted positions e and e+1) is r-clean iff the r
  *    gap across it exceeds a small tolerance (condition 1, strictness);
  *  - boundary e is α-clean iff no instance has a positive-α member at
  *    position ≤ e and any member at position > e. Such instances mark the
  *    interval [minPosWithPositiveAlpha, maxPos) as dirty — a difference
  *    array gives all dirty boundaries in O(|Ψ|h + n).
  *
  * Segments between clean boundaries satisfy all three conditions of
  * Definition 6 (the α-clean test is slightly *stronger* than condition 3,
  * which only coarsens groups — still sound). Because bound validity is
  * what exactness rests on, the r-gap test ([[Bounds.gapClean]]) and the
  * applied bounds carry a safety slack: a group boundary that "should" be
  * a tie is never split, and bounds are widened by [[Bounds.groupSlack]]
  * to absorb floating-point drift of the Frank–Wolfe weights.
  * Verification downstream is exact integer flow, so slack costs only
  * speed, never correctness.
  */
object StableGroups {

  final case class Result(
      groups: Array[Array[Int]],     // r-descending stable groups
      groupMaxR: Array[Double],      // max r per group (unslacked)
      groupMinR: Array[Double],      // min r per group (unslacked)
  )

  /** Derive stable groups from the current (α, r) of `state`. */
  def derive(state: KClistPP.CPState): Result = {
    val inst = state.inst
    val n = inst.n
    val r = state.r
    val sorted = (0 until n).sortBy(v => (-r(v), v)).toArray
    val pos = new Array[Int](n)
    var i = 0
    while (i < n) { pos(sorted(i)) = i; i += 1 }

    // dirty-boundary difference array from instance α structure
    val dirty = new Array[Int](n + 1)
    i = 0
    while (i < inst.size) {
      val mem = inst.members(i)
      val a = state.alpha(i)
      var minPosPos = Int.MaxValue // min position among positive-α members
      var maxPos = -1
      var j = 0
      while (j < mem.length) {
        val p = pos(mem(j))
        if (p > maxPos) maxPos = p
        if (a(j) > 0.0 && p < minPosPos) minPosPos = p
        j += 1
      }
      if (minPosPos < maxPos) { // boundaries [minPosPos, maxPos-1] are dirty
        dirty(minPosPos) += 1
        dirty(maxPos) -= 1
      }
      i += 1
    }

    val groups = scala.collection.mutable.ArrayBuffer.empty[Array[Int]]
    val maxRs = scala.collection.mutable.ArrayBuffer.empty[Double]
    val minRs = scala.collection.mutable.ArrayBuffer.empty[Double]
    var cover = 0
    var start = 0
    i = 0
    while (i < n) {
      cover += dirty(i)
      val gapClean = i == n - 1 || Bounds.gapClean(r(sorted(i)), r(sorted(i + 1)))
      if (gapClean && cover == 0) {
        val g = java.util.Arrays.copyOfRange(sorted, start, i + 1)
        groups += g
        maxRs += r(sorted(start))
        minRs += r(sorted(i))
        start = i + 1
      }
      i += 1
    }
    require(start == n, "vertex order must be fully covered by groups")
    Result(groups.toArray, maxRs.toArray, minRs.toArray)
  }

  /** Tighten the running bounds with the Theorem-4 group brackets,
    * widened by [[Bounds.groupSlack]]. Mutates `ub` and `lb` in place.
    */
  def tightenBounds(res: Result, ub: Array[Double], lb: Array[Double]): Unit = {
    var gi = 0
    while (gi < res.groups.length) {
      val hi = res.groupMaxR(gi) + Bounds.groupSlack
      val lo = res.groupMinR(gi) - Bounds.groupSlack
      for (v <- res.groups(gi)) {
        if (hi < ub(v)) ub(v) = hi
        if (lo > lb(v)) lb(v) = lo
      }
      gi += 1
    }
  }

  /** Literal Definition-6 stability check — used by tests to confirm every
    * derived group really is a stable group w.r.t. (α, r).
    */
  def isStableGroup(state: KClistPP.CPState, group: Array[Int]): Boolean = {
    val inst = state.inst
    val r = state.r
    val inS = new Array[Boolean](inst.n)
    group.foreach(inS(_) = true)
    val maxS = group.map(r).max
    val minS = group.map(r).min
    // condition 1
    for (v <- 0 until inst.n if !inS(v))
      if (!(r(v) > maxS || r(v) < minS)) return false
    // conditions 2 and 3
    var i = 0
    while (i < inst.size) {
      val mem = inst.members(i)
      val a = state.alpha(i)
      val touchesS = mem.exists(inS)
      if (touchesS) {
        var j = 0
        while (j < mem.length) {
          val v = mem(j)
          if (!inS(v) && r(v) > maxS && a(j) > 0.0) return false        // cond 2
          if (inS(v) && a(j) > 0.0 && mem.exists(w => r(w) < minS)) return false // cond 3
          j += 1
        }
      }
      i += 1
    }
    true
  }
}
