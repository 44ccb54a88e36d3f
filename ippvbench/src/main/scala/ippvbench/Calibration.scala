package ippvbench

/** A fixed random-memory loop: pointer chasing through a single random
  * cycle over 64 MiB, so nearly every step misses the caches. Its time
  * tracks the host's memory system; a run whose loop is slow ran on a
  * slowed host.
  */
object Calibration {

  private val size = 1 << 24
  private val steps = 1 << 20

  private lazy val next: Array[Int] = {
    // Sattolo's algorithm: a uniformly random single cycle
    val a = Array.tabulate(size)(identity)
    val rnd = new java.util.SplittableRandom(12345L)
    var i = size - 1
    while (i > 0) {
      val j = rnd.nextInt(i)
      val t = a(i); a(i) = a(j); a(j) = t
      i -= 1
    }
    a
  }

  @volatile private var sink = 0

  def memLoopSeconds(): Double = {
    val a = next
    val t0 = System.nanoTime()
    var p = 0
    var i = 0
    while (i < steps) { p = a(p); i += 1 }
    sink = p
    (System.nanoTime() - t0) / 1e9
  }
}
