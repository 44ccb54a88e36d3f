package repro.core

import repro.flow.Dinic
import repro.graph.LocalGraph
import scala.collection.mutable

/** LhCDS verification (Section 4.4): flow-network construction
  * (DeriveCompact), the self-densest check (IsDensest), the basic
  * whole-graph verification (Algorithm 4), and the fast BFS-bounded
  * verification with boundary-instance correction (Algorithm 5).
  *
  * ==Exact arithmetic==
  * The paper perturbs the threshold to `ρ − 1/|V|²` (Theorem 5). We go one
  * step further and compute with an *exact infinitesimal*: capacities are
  * elements of Z[δ] scaled by `M = den · lcm(1..h)` so every main part is
  * an integer and the perturbation is `deltaSign · hM · δ`. [[Dinic]] runs
  * on these pairs directly, so min cuts are exact — no floating-point
  * epsilon anywhere in verification.
  *
  * ==Cut semantics==
  * `DeriveCompact(ρ − δ)` with the *largest* optimal source side returns
  * the union of all maximal h-clique ρ-compact subgraphs (Theorem 5);
  * `DeriveCompact(ρ + δ)` returns the largest subgraph of density > ρ (or
  * ∅), giving IsDensest and the exact densest-subgraph extractor used by
  * the refinement fallback and the flow-based baselines.
  */
object Verify {

  /** lcm(1..h) — every boundary-gadget denominator `cnt ≤ h` divides it. */
  def lcmUpTo(h: Int): Long = {
    def gcd(a: Long, b: Long): Long = if (b == 0) a else gcd(b, a % b)
    (1L to h.toLong).foldLeft(1L)((acc, k) => acc / gcd(acc, k) * k)
  }

  /** Solve the flow network of Figure 6/7 and return the largest optimal
    * source side, as a mask over `0 until nT`.
    *
    * @param nT        number of graph vertices in the network
    * @param h         instance arity
    * @param internal  instances fully inside the vertex space (member ids)
    * @param boundary  boundary instances: the members inside the vertex
    *                  space only (cnt = array length < h); each gives its
    *                  members arcs of capacity h/cnt in and h−1 out, and
    *                  adds h/cnt to their source capacity (Alg. 4 l. 11-16)
    * @param num, den  the threshold ρ = num/den
    * @param deltaSign −1 for ρ−δ (maximal compact subgraphs), +1 for ρ+δ
    *                  (densest-subgraph test), 0 for unperturbed ρ
    */
  def deriveCompact(
      nT: Int,
      h: Int,
      internal: Array[Array[Int]],
      boundary: Array[Array[Int]],
      num: Long,
      den: Long,
      deltaSign: Int,
  ): Array[Boolean] = {
    require(den >= 1 && num >= 0)
    val L = lcmUpTo(h)
    val M = den * L
    val nNodes = 2 + nT + internal.length + boundary.length
    val s = nT + internal.length + boundary.length
    val t = s + 1
    val net = new Dinic(nNodes)

    // source capacities: instance degree (scaled), plus boundary additions
    val srcCapMain = new Array[Long](nT)
    var i = 0
    while (i < internal.length) {
      val node = nT + i
      val mem = internal(i)
      var j = 0
      while (j < mem.length) {
        val v = mem(j)
        net.addEdge(node, v, (h - 1) * M)
        net.addEdge(v, node, M)
        srcCapMain(v) += M
        j += 1
      }
      i += 1
    }
    i = 0
    while (i < boundary.length) {
      val node = nT + internal.length + i
      val mem = boundary(i)
      val cnt = mem.length
      require(cnt >= 1 && cnt < h, s"boundary instance must have 1..h-1 members inside, got $cnt")
      val capIn = h * M / cnt // (1 + (h-cnt)/cnt) scaled by M; cnt | L so exact
      var j = 0
      while (j < mem.length) {
        val v = mem(j)
        net.addEdge(node, v, (h - 1) * M)
        net.addEdge(v, node, capIn)
        srcCapMain(v) += capIn
        j += 1
      }
      i += 1
    }
    var v = 0
    while (v < nT) {
      if (srcCapMain(v) > 0) net.addEdge(s, v, srcCapMain(v))
      // v -> t with capacity ρ̃ · h (scaled): main = num·h·L, inf = deltaSign·h·M
      net.addEdge(v, t, num * h * L, deltaSign.toLong * h * M)
      v += 1
    }
    net.maxflow(s, t)
    val side = net.maxCutSourceSide()
    Array.tabulate(nT)(side(_))
  }

  /** Exact largest densest subgraph of the instance set over `0 until n`
    * (Dinkelbach-style iteration of perturbed cuts). Returns the vertex
    * set (sorted) and its exact density num/den; empty set if there are no
    * instances.
    */
  def exactDensest(n: Int, inst: InstanceSet): (Array[Int], Long, Long) = {
    if (inst.size == 0) return (Array.empty, 0L, 1L)
    val members = inst.members
    var bestNum = 0L
    var bestDen = 1L
    var best: Array[Int] = Array.empty
    var improved = true
    while (improved) {
      improved = false
      val side = deriveCompact(n, inst.h, members, Array.empty, bestNum, bestDen, +1)
      val vs = (0 until n).filter(side(_)).toArray
      if (vs.nonEmpty) {
        val cnt = inst.countWithin(side)
        // strict improvement guaranteed by the +δ threshold
        require(cnt * bestDen > bestNum * vs.length, "Dinkelbach step must improve density")
        bestNum = cnt; bestDen = vs.length; best = vs
        improved = true
      }
    }
    // largest maximizer at the optimum
    val side = deriveCompact(n, inst.h, members, Array.empty, bestNum, bestDen, -1)
    val vs = (0 until n).filter(side(_)).toArray
    (vs, bestNum, bestDen)
  }

  /** Is G[S] self-densest, i.e. no subgraph of it denser than itself?
    * (Proposition 6 (1); checked with one perturbed cut on G[S].)
    */
  def isDensest(inst: InstanceSet, sSorted: Array[Int]): Boolean = {
    val sub = inst.remapTo(sSorted)
    if (sub.size == 0) return sSorted.length <= 1
    val num = sub.size.toLong
    val den = sSorted.length.toLong
    val side = deriveCompact(sSorted.length, inst.h, sub.members, Array.empty, num, den, +1)
    !side.exists(identity)
  }

  /** Basic verification (Algorithm 4): is G[S] a connected component of
    * the union of all maximal h-clique ρ-compact subgraphs of G, with
    * ρ = d(G[S])? Builds the flow network over the WHOLE graph.
    */
  def basicVerify(g: LocalGraph, inst: InstanceSet, sSorted: Array[Int]): Boolean = {
    val mask = new Array[Boolean](g.n)
    sSorted.foreach(mask(_) = true)
    val num = inst.countWithin(mask)
    val den = sSorted.length.toLong
    if (num == 0) return false
    val side = deriveCompact(g.n, inst.h, inst.members, Array.empty, num, den, -1)
    isComponentOf(g, sSorted, side)
  }

  /** Fast verification (Algorithm 5's shape, with a provably-exact region
    * closure): BFS from S over every vertex whose upper bound admits
    * membership in a ρ-compact subgraph (ub ≥ ρ), then one small perturbed
    * cut over G[T].
    *
    * ==Why this is exact==
    * Any ρ-compact subgraph C of G has φ(v) ≥ ρ, hence ub(v) ≥ ρ, on all
    * its vertices; C is connected, so if C touches T it lies wholly inside
    * the ub ≥ ρ closure T, together with all of its instances. Conversely
    * every ρ-compact subgraph of G[T] is one of G. So the maximal
    * ρ-compact subgraphs of G[T] are exactly those of G that touch T, and
    * "S is a connected component of DeriveCompact(G[T], ρ−δ)" is the same
    * predicate as on the whole graph — no boundary gadget needed. (The
    * literal Algorithm-5 truncation at lb > ρ plus the P correction can
    * miss a witness superset that connects to S only through lb > ρ
    * vertices; the closure above removes that gap. The paper's boundary
    * gadget remains available in [[deriveCompact]].)
    *
    * Two shortcut exits keep the common cases cheap, mirroring the paper:
    *  - early False: a member of S with lb > ρ, or a neighbor of S with
    *    lb > ρ. The neighbor's maximal compact subgraph M₀ is ρ-compact
    *    and S ∪ M₀ is a connected ρ-compact strict superset (removal of X
    *    kills ≥ ρ|X∩S| + ρ|X∩M₀| ≥ ρ|X| instances), so S is not maximal.
    *  - cheap True: the BFS closure never left S (T = S), so no superset
    *    vertex can exist, and a self-densest S is automatically ρ-compact.
    *
    * `ub` and `lb` must be globally valid compact-number bounds
    * (lb(v) ≤ φ_h(v) ≤ ub(v) w.r.t. G); `inOutput` marks vertices of
    * already-output LhCDSes (their bounds are pinned to their exact
    * density by the driver, which makes these exits effective).
    */
  def fastVerify(
      g: LocalGraph,
      inst: InstanceSet,
      sSorted: Array[Int],
      ub: Array[Double],
      lb: Array[Double],
      inOutput: Array[Boolean],
  ): Boolean = {
    val sMask = new Array[Boolean](g.n)
    sSorted.foreach(sMask(_) = true)
    val num = inst.countWithin(sMask)
    val den = sSorted.length.toLong
    if (num == 0) return false
    val rhoMinus = num.toDouble / den - Bounds.exactSlack // inclusive ≥ ρ test for ub
    val rhoPlus = num.toDouble / den + Bounds.exactSlack  // strict > ρ test for lb

    // early False: S member or S neighbor certainly in a denser region
    if (sSorted.exists(u => lb(u) > rhoPlus)) return false
    for (u <- sSorted) {
      var bad = false
      g.foreachNeighbor(u)(w => if (!sMask(w) && lb(w) > rhoPlus) bad = true)
      if (bad) return false
    }

    // closure of S under edges to ub ≥ ρ vertices
    val inT = new Array[Boolean](g.n)
    val queue = new mutable.ArrayDeque[Int]()
    sSorted.foreach { u => inT(u) = true; queue.append(u) }
    var tSize = sSorted.length
    while (queue.nonEmpty) {
      val v = queue.removeHead()
      g.foreachNeighbor(v) { w =>
        if (!inT(w) && ub(w) >= rhoMinus) { inT(w) = true; tSize += 1; queue.append(w) }
      }
    }

    if (tSize == sSorted.length) return true // cheap True: T = S

    val tVerts = (0 until g.n).filter(inT(_)).toArray
    val sub = inst.remapTo(tVerts)
    val side = deriveCompact(tVerts.length, inst.h, sub.members, Array.empty, num, den, -1)
    val newId = new Array[Int](g.n)
    java.util.Arrays.fill(newId, -1)
    var i = 0
    while (i < tVerts.length) { newId(tVerts(i)) = i; i += 1 }
    val (subG, _) = g.inducedOn(tVerts)
    isComponentOf(subG, sSorted.map(newId).sorted, side)
  }

  /** Is `sSorted` exactly one connected component of the subgraph induced
    * by `mask` in `g`?
    */
  def isComponentOf(g: LocalGraph, sSorted: Array[Int], mask: Array[Boolean]): Boolean = {
    if (sSorted.exists(v => !mask(v))) return false
    val comps = g.componentsWithin(mask)
    comps.exists(c => java.util.Arrays.equals(c, sSorted))
  }
}
