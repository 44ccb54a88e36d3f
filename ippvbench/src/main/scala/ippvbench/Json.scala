package ippvbench

/** The result line: `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`. */
object Json {

  private def number(v: Double): String =
    if (v.isNaN || v.isInfinite) "null"
    else if (v == math.rint(v) && math.abs(v) < 1e15) v.toLong.toString
    else java.lang.Double.toString(v)

  def result(correct: Boolean, attempted: Long, failed: Long, metrics: Seq[(String, (Double, String))]): String = {
    val ms = metrics.map { case (name, (value, unit)) =>
      s""""$name": {"value": ${number(value)}, "unit": "$unit"}"""
    }
    s"""{"correct": $correct, "attempted": $attempted, "failed": $failed, "metrics": {${ms.mkString(", ")}}}"""
  }
}
