package repro.core

/** Initial compact-number bounds, and every floating-point slack the
  * pipeline puts on its bounds.
  *
  * Verification is exact flow over Z[δ] ([[Verify]]), so bounds only steer
  * pruning, queue keys and the fast-verification region. Exactness needs
  * each bound to stay valid (lb(v) ≤ φ_h(v) ≤ ub(v)) under rounding, so
  * every slack widens in the safe direction, and a wider slack costs only
  * speed. The values are not yet derived from one widening rule.
  */
object Bounds {

  /** On exact values (core numbers, densities): ≫ rounding, ≪ the gap 1/(b·d) ≥ 1e-10 between densities a/b ≠ c/d on ≤ 10⁵ vertices. */
  final val exactSlack = 1e-12

  /** Below core/h: one rounded division needs far less, and a looser lower bound only weakens pruning. */
  final val coreLowerSlack = 1e-9

  /** On Prune's comparisons: 1000 × [[exactSlack]], so separately rounded bounds never prune a vertex on rounding alone. */
  final val pruneSlack = 1e-9

  /** On the Theorem-4 group brackets: Frank–Wolfe loads are long float sums, so their drift gets a generous margin. */
  final val groupSlack = 1e-6

  /** A stable-group boundary needs an r gap above 1e-9 + 1e-12·|hi|: float-level differences, even of large loads, are ties. */
  def gapClean(hi: Double, lo: Double): Boolean = hi - lo > 1e-9 + 1e-12 * math.abs(hi)

  /** InitializeBd (Algorithm 1): `(ub, lb)` from core(v)/h ≤ φ_h(v) ≤ core(v), slacked. */
  def initial(cores: Array[Int], h: Int): (Array[Double], Array[Double]) =
    (cores.map(_.toDouble + exactSlack), cores.map(_.toDouble / h - coreLowerSlack))
}
