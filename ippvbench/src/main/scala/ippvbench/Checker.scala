package ippvbench

import repro.core.{IPPV, InstanceSet, Verify}
import repro.graph.LocalGraph

/** Checks one query's top-k output on code paths other than the timed one.
  * Its calls into `Verify` and `InstanceSet` double as the `verify.*` and
  * `instanceset.*` probes, and it adds up the sizes of the flow networks
  * that its own IsDensest, basic-verification and top-1 cuts build.
  */
object Checker {

  final class FlowSize { var nodes = 0L; var arcs = 0L }

  /** Nodes and arcs of `Verify.deriveCompact`'s network over `nT` vertices
    * and the instance set `inst` (no boundary instances): one node per
    * vertex and per instance plus s and t; two arcs per `addEdge`, which
    * is called twice per instance member, once per source-linked vertex and
    * once per vertex for its sink arc. Computed, not measured.
    */
  def addNetwork(fs: FlowSize, nT: Int, inst: InstanceSet): Unit = {
    fs.nodes += 2L + nT + inst.size
    fs.arcs += 2L * (2L * inst.h * inst.size + inst.degrees.count(_ > 0) + nT)
  }

  /** Throws `IllegalStateException` with the reason if `out` is not a
    * correct top-`k` LhCDS answer for `inst` over `g`. Every emitted set
    * must pass IsDensest and basic verification, carry the density
    * `countWithin`/|S|, be disjoint from the earlier sets and be no denser
    * than the previous one; and no subgraph of `g` may be denser than the
    * first set, which one perturbed cut over the whole graph decides
    * exactly (`deriveCompact` at ρ + δ returns the largest subgraph of
    * density > ρ, or ∅).
    *
    * With `cores` (the instance-core numbers of `inst`) the call also runs
    * the layer probes: fast verification of every set with the initial
    * core bounds (globally valid by Proposition 3), and `exactDensest` on
    * the whole graph, whose density must equal the first set's.
    */
  def check(
      g: LocalGraph,
      inst: InstanceSet,
      k: Int,
      out: Seq[IPPV.Lhcds],
      t: Timers,
      fs: FlowSize,
      cores: Option[Array[Int]],
  ): Unit = {
    def ensure(ok: Boolean, why: => String): Unit =
      if (!ok) throw new IllegalStateException(why)

    ensure(out.length <= k, s"${out.length} sets for k=$k")
    ensure(out.nonEmpty || inst.size == 0, "no set although the graph has instances")
    val taken = new Array[Boolean](g.n)
    var prev: IPPV.Lhcds = null
    for (s <- out) {
      val vs = s.vertices
      ensure(vs.nonEmpty && vs.indices.forall(i => i == 0 || vs(i - 1) < vs(i)) &&
               vs.head >= 0 && vs.last < g.n, s"$s: vertices not sorted, distinct and in range")
      ensure(!vs.exists(taken(_)), s"$s overlaps an earlier set")
      vs.foreach(taken(_) = true)
      val mask = new Array[Boolean](g.n)
      vs.foreach(mask(_) = true)
      val cnt = t.time("instanceset.count_s")(inst.countWithin(mask))
      ensure(s.num == cnt && s.den == vs.length, s"$s: density is not $cnt/${vs.length}")
      val sub = t.time("instanceset.remap_s")(inst.remapTo(vs))
      ensure(sub.size == cnt, s"$s: remapTo keeps ${sub.size} instances, countWithin $cnt")
      ensure(t.time("verify.isdensest_s")(Verify.isDensest(inst, vs)), s"$s is not self-densest")
      addNetwork(fs, vs.length, sub)
      ensure(t.time("verify.basic_s")(Verify.basicVerify(g, inst, vs)), s"$s fails basic verification")
      addNetwork(fs, g.n, inst)
      if (prev != null)
        ensure(prev.num * s.den >= s.num * prev.den, s"density rises from $prev to $s")
      prev = s
    }
    if (out.nonEmpty) {
      val top = out.head
      val denser = Verify.deriveCompact(g.n, inst.h, inst.members, Array.empty, top.num, top.den, +1)
      addNetwork(fs, g.n, inst)
      ensure(!denser.exists(identity), s"a subgraph is denser than the top-1 set $top")
    }
    for (c <- cores) {
      val ub = c.map(_.toDouble + 1e-12)
      val lb = c.map(_.toDouble / inst.h - 1e-9)
      val noOutput = new Array[Boolean](g.n)
      for (s <- out)
        ensure(t.time("verify.fast_s")(Verify.fastVerify(g, inst, s.vertices, ub, lb, noOutput)),
               s"$s fails fast verification")
      if (out.nonEmpty) {
        val (_, num, den) = t.time("verify.exact_densest_s")(Verify.exactDensest(g.n, inst))
        val top = out.head
        ensure(top.num * den == num * top.den, s"top-1 $top is not the densest density $num/$den")
      }
    }
  }
}
