package repro.core

import repro.clique.CliqueCore
import repro.graph.LocalGraph

/** Pruning of invalid vertices (Algorithm 3 / Proposition 5).
  *
  * Condition (1): if an edge (u, v) has lb(u) > ub(v) then by Proposition 4
  * v cannot be inside any LhCDS — remove it. Condition (2): after the
  * removals, a vertex whose instance-core number in the pruned graph falls
  * below its lower bound cannot reach its compactness with surviving
  * vertices only — remove it too, iterating to a fixpoint because core
  * numbers only shrink as vertices disappear.
  *
  * All comparisons carry [[Bounds.pruneSlack]] in the non-pruning
  * direction, so a true LhCDS member is never pruned even under
  * floating-point drift of the bounds (Proposition 5's guarantee is what
  * IPPV's exactness rests on); over-retained vertices only cost time
  * downstream.
  */
object Prune {

  /** Returns the keep-mask over the vertices of `g`. `ub`/`lb` are the
    * current compact-number bounds in the same id space.
    */
  def run(g: LocalGraph, inst: InstanceSet, ub: Array[Double], lb: Array[Double]): Array[Boolean] = {
    val n = g.n
    val alive = Array.fill(n)(true)

    // condition (1): one pass over edges
    var v = 0
    while (v < n) {
      var i = g.offsets(v)
      var dead = false
      while (!dead && i < g.offsets(v + 1)) {
        if (lb(g.adj(i)) > ub(v) + Bounds.pruneSlack) dead = true
        i += 1
      }
      if (dead) alive(v) = false
      v += 1
    }

    // condition (2): peel by core numbers until fixpoint
    var changed = true
    while (changed) {
      changed = false
      val restricted = inst.restrictTo(alive)
      val cores = CliqueCore.coreNumbers(restricted)
      var u = 0
      while (u < n) {
        if (alive(u) && cores(u) < lb(u) - Bounds.pruneSlack) { alive(u) = false; changed = true }
        u += 1
      }
    }
    alive
  }
}
