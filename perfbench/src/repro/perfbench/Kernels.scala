package repro.perfbench

import repro.lake.Lake
import repro.lsh.{Banding, MinHash, RandomProjection}
import repro.stats.KolmogorovSmirnov
import repro.text.{Embeddings, FormatRegex, Tokenizer}

/** Driver-side pass over the `text`, `lsh` and `stats` kernels, fed with the
  * workload lake's own values. Each kernel repeats over its whole input
  * until at least `minSeconds` have passed, and reports nanoseconds per item
  * together with the item count of one pass.
  */
object Kernels {

  final case class Kernel(metric: String, items: Long, nsPerItem: Double)

  /** Column extents as the index sees them: non-empty values only. */
  private def extents(lake: Lake): IndexedSeq[IndexedSeq[String]] =
    lake.tables.flatMap(_.columns.map(_.values.filter(v => v != null && v.trim.nonEmpty)))

  private def timePerItem(metric: String, items: Long, minSeconds: Double)(pass: => Iterable[Any]): Kernel = {
    var sink = 0
    val t0 = System.nanoTime()
    var passes = 0
    while (passes == 0 || System.nanoTime() - t0 < minSeconds * 1e9) {
      sink += pass.size
      passes += 1
    }
    val ns = (System.nanoTime() - t0).toDouble / (passes.toLong * math.max(1L, items))
    if (sink == 42) print("") // keeps the results observable to the JIT
    Kernel(metric, items, ns)
  }

  def run(tracer: Tracer, lake: Lake, minSeconds: Double): Seq[Kernel] = {
    val cols = extents(lake)
    val values = cols.flatten
    val names = lake.tables.flatMap(_.columns.map(_.name))
    // The index's numeric-attribute rule (D3LConfig.numericFrac = 0.8).
    val (numeric, textual) = cols.filter(_.nonEmpty)
      .partition(c => c.count(Tokenizer.isNumericValue) >= 0.8 * c.size)

    val text = tracer.span("text") {
      Seq(
        timePerItem("text.part_words.ns_per_value", values.size, minSeconds)(values.map(Tokenizer.partWords)),
        timePerItem("text.format_string.ns_per_value", values.size, minSeconds)(values.map(FormatRegex.formatString)),
        timePerItem("text.qgrams.ns_per_name", names.size, minSeconds)(names.map(n => Tokenizer.qgrams(n))),
        timePerItem("text.parse_numeric.ns_per_value", values.size, minSeconds)(values.map(Tokenizer.parseNumeric)),
      )
    }

    val lsh = tracer.span("lsh") {
      // 𝕍-style token sets and 𝔼-style mean vectors of the textual attributes.
      val tokenSets = textual.map(_.flatMap(Tokenizer.tokens).toSet)
      val nTokens = tokenSets.map(_.size.toLong).sum
      val sigs = tokenSets.map(MinHash.signature(_))
      val vecs = tokenSets.map(ts => Embeddings.mean(ts.toSeq.map(Embeddings.baseVector)))
      val bits = vecs.map(RandomProjection.signature)
      val bucketCount = sigs.map(Banding.buckets(_, Banding.minhashLevels).size.toLong).sum
      // All pairs among a bounded prefix keep one pass short on large lakes.
      val m = math.min(sigs.size, 300)
      val pairs = for (i <- 0 until m; j <- i + 1 until m) yield (i, j)
      Seq(
        timePerItem("lsh.minhash.ns_per_token", nTokens, minSeconds)(tokenSets.map(MinHash.signature(_))),
        timePerItem("lsh.banding.ns_per_sig", sigs.size, minSeconds)(sigs.map(Banding.buckets(_, Banding.minhashLevels))),
        Kernel("lsh.buckets_per_sig", sigs.size, bucketCount.toDouble / math.max(1, sigs.size)),
        timePerItem("lsh.simhash.ns_per_vec", vecs.size, minSeconds)(vecs.map(RandomProjection.signature)),
        timePerItem("lsh.jaccard_est.ns_per_pair", pairs.size, minSeconds)(
          pairs.map { case (i, j) => MinHash.estimateJaccard(sigs(i), sigs(j)) }),
        timePerItem("lsh.cosine_est.ns_per_pair", pairs.size, minSeconds)(
          pairs.map { case (i, j) => RandomProjection.estimateCosine(bits(i), bits(j)) }),
      )
    }

    val stats = tracer.span("stats") {
      // Sorted numeric profiles, all pairs, as Algorithm 2 compares them.
      val profiles = numeric.map { c =>
        val xs = c.flatMap(Tokenizer.parseNumeric).toArray
        java.util.Arrays.sort(xs)
        xs
      }
      val pairs = for (i <- profiles.indices; j <- i + 1 until profiles.size) yield (i, j)
      Seq(timePerItem("stats.ks.ns_per_pair", pairs.size, minSeconds)(
        pairs.map { case (i, j) => KolmogorovSmirnov.statisticSorted(profiles(i), profiles(j)) }))
    }

    text ++ lsh ++ stats
  }
}
