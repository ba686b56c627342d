package core

import (
	"context"
	"testing"

	"hetero2pipe/internal/model"
	"hetero2pipe/internal/pipeline"
	"hetero2pipe/internal/profile"
	"hetero2pipe/internal/soc"
)

// BenchmarkOptimizeTail is the tail search alone — the exported
// OptimizeTail: one priced base run, the K single-processor variants of
// every request, and the executed Result of the winner — on a fixed
// six-model Kirin 990 schedule assembled from each model's Algorithm-1
// cuts. It measures the layer the candidate sweep spends most of its
// priced runs in, without the sweep around it.
func BenchmarkOptimizeTail(b *testing.B) {
	sched := partitionedSchedule(b, soc.Kirin990(), []string{
		model.YOLOv4, model.SqueezeNet, model.BERT, model.ResNet50, model.MobileNetV2, model.GoogLeNet,
	})
	opts := pipeline.DefaultOptions()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := OptimizeTail(sched, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// partitionedSchedule assembles the window's Algorithm-1 schedule on s from
// freshly built profiles.
func partitionedSchedule(tb testing.TB, s *soc.SoC, names []string) *pipeline.Schedule {
	tb.Helper()
	profiles := make([]*profile.Profile, len(names))
	cuts := make([]pipeline.Cuts, len(names))
	for i, name := range names {
		p, err := profile.New(s, model.MustByName(name))
		if err != nil {
			tb.Fatal(err)
		}
		profiles[i] = p
		if cuts[i], _, err = PartitionContext(context.Background(), p); err != nil {
			tb.Fatal(err)
		}
	}
	sched, err := pipeline.FromCuts(s, profiles, cuts)
	if err != nil {
		tb.Fatal(err)
	}
	return sched
}
