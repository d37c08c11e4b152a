package main

import (
	"bytes"
	"fmt"

	"ccdem/internal/fleet"
)

// replayFleet replays device rows through the fleet layer's public
// aggregation and distribution calls, one span per call: Accumulator.Add
// and Merge split over shards ranges, the shard codec, MergeShards and a
// checkpoint encode. Every path must fold to the aggregate want. It
// returns the encoded shard bytes.
func replayFleet(rows []fleet.DeviceResult, c fleet.Cohort, shards int, l *lane, want []byte) (int, error) {
	n := len(rows)
	order := make([]string, len(c.Profiles))
	for i, p := range c.Profiles {
		order[i] = p.Name
	}
	accs := make([]*fleet.Accumulator, shards)
	for k := range accs {
		accs[k] = fleet.NewAccumulator()
		lo, hi := fleet.ShardRange(n, k, shards)
		for _, r := range rows[lo:hi] {
			l.begin("fleet.accumulate")
			accs[k].Add(r)
			l.end()
		}
	}
	docs := make([][]byte, shards)
	size := 0
	for k, acc := range accs {
		s := &fleet.Shard{Index: k, Count: shards, CohortDevices: n, ProfileOrder: order, Acc: acc}
		var buf bytes.Buffer
		l.begin("fleet.shard_encode")
		err := s.Encode(&buf)
		l.end()
		if err != nil {
			return 0, err
		}
		docs[k] = buf.Bytes()
		size += buf.Len()
	}
	decoded := make([]*fleet.Shard, shards)
	ckpt := fleet.NewCheckpoint("perfbench", "perfbench", shards)
	for k, doc := range docs {
		l.begin("fleet.shard_decode")
		s, err := fleet.DecodeShard(bytes.NewReader(doc))
		l.end()
		if err != nil {
			return 0, err
		}
		decoded[k] = s
		again, err := fleet.DecodeShard(bytes.NewReader(doc))
		if err != nil {
			return 0, err
		}
		if err := ckpt.AddShard(again); err != nil {
			return 0, err
		}
	}
	merged := fleet.NewAccumulator()
	for _, acc := range accs {
		l.begin("fleet.merge")
		merged.Merge(acc)
		l.end()
	}
	if got := aggregateJSON(merged.Aggregate(c.Profiles)); !bytes.Equal(got, want) {
		return 0, fmt.Errorf("accumulator merge of replayed rows differs from the campaign aggregate")
	}
	l.begin("fleet.merge_shards")
	res, err := fleet.MergeShards(decoded)
	l.end()
	if err != nil {
		return 0, err
	}
	if got := aggregateJSON(res.Aggregate); !bytes.Equal(got, want) {
		return 0, fmt.Errorf("MergeShards of the shard documents differs from the campaign aggregate")
	}
	var ck bytes.Buffer
	l.begin("fleet.checkpoint_encode")
	err = ckpt.Encode(&ck)
	l.end()
	if err != nil {
		return 0, err
	}
	back, err := fleet.DecodeCheckpoint(&ck)
	if err != nil {
		return 0, err
	}
	cres, err := back.Result()
	if err != nil {
		return 0, err
	}
	if got := aggregateJSON(cres.Aggregate); !bytes.Equal(got, want) {
		return 0, fmt.Errorf("checkpoint result differs from the campaign aggregate")
	}
	return size, nil
}
