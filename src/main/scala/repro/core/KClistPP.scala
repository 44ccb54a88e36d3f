package repro.core

/** SEQ-kClist++ (Algorithm 2, lines 5–13): approximate solver of the
  * convex program CP(G, h).
  *
  * Each instance ψ owns one unit of weight split over its h members as
  * α(ψ, ·); r(u) is the total weight received by u. The optimum of
  * CP(G, h) = min Σ r(u)² has r*(u) equal to the h-clique compact number
  * φ_h(u) (Theorem 2). Each iteration rescales (α, r) by (1 − γ_t) with
  * γ_t = 1/(t+1) and gives each instance's γ_t budget to its currently
  * poorest member, updating r *sequentially* as in the paper's SEQ
  * variant.
  *
  * [[CPState]] is what the driver's `fwRunner` returns from either solver,
  * this one or the distributed [[SparkKClistPP]]; TentativeGD and the
  * stable-group derivation read (α, r) from it. The driver starts a fresh
  * state in every propose round.
  */
object KClistPP {

  /** Mutable Frank–Wolfe state: α is indexed [instance][position] in the
    * instance's member array; `t` is the number of iterations done.
    */
  final class CPState(val inst: InstanceSet) {
    val alpha: Array[Array[Double]] =
      Array.fill(inst.size)(Array.fill(inst.h)(1.0 / inst.h))
    val r: Array[Double] = {
      val acc = new Array[Double](inst.n)
      var i = 0
      while (i < inst.size) {
        val mem = inst.members(i)
        var j = 0
        while (j < mem.length) { acc(mem(j)) += alpha(i)(j); j += 1 }
        i += 1
      }
      acc
    }
    var t: Int = 0

    /** Σ_u r(u)² — the CP objective (decreases towards the optimum). */
    def objective: Double = {
      var s = 0.0
      var u = 0
      while (u < inst.n) { s += r(u) * r(u); u += 1 }
      s
    }
  }

  /** Run `iters` additional sequential Frank–Wolfe iterations in place. */
  def run(state: CPState, iters: Int): CPState = {
    val inst = state.inst
    val alpha = state.alpha
    val r = state.r
    var it = 0
    while (it < iters) {
      state.t += 1
      val gamma = 1.0 / (state.t + 1)
      val keep = 1.0 - gamma
      // α ← (1 − γ) α ; r ← (1 − γ) r
      var i = 0
      while (i < inst.size) {
        val a = alpha(i)
        var j = 0
        while (j < a.length) { a(j) *= keep; j += 1 }
        i += 1
      }
      var u = 0
      while (u < inst.n) { r(u) *= keep; u += 1 }
      // each instance gives γ to its currently poorest member (sequential)
      i = 0
      while (i < inst.size) {
        val mem = inst.members(i)
        var minJ = 0
        var j = 1
        while (j < mem.length) {
          if (r(mem(j)) < r(mem(minJ))) minJ = j
          j += 1
        }
        alpha(i)(minJ) += gamma
        r(mem(minJ)) += gamma
        i += 1
      }
      it += 1
    }
    state
  }

  /** Fresh state with `iters` iterations applied. */
  def fresh(inst: InstanceSet, iters: Int): CPState =
    run(new CPState(inst), iters)
}
