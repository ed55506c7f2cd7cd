package predictors

import (
	"prism5g/internal/rng"
	"prism5g/internal/trace"
)

// shuffleChunks sets the shuffle-buffer size in units of minibatches: the
// streaming source holds at most Batch*shuffleChunks windows at once,
// shuffles within that buffer, and trains from it. A larger buffer
// approaches the full-shuffle trajectory of TrainLoop at the cost of
// memory; eight batches is enough to decorrelate the trace-ordered window
// stream a population build produces.
const shuffleChunks = 8

// TrainLoopStream is TrainLoop for window streams: the same training loop,
// but the training and validation sets are consumed through
// trace.WindowStream in bounded chunks, so peak memory is
// Batch*shuffleChunks windows no matter how many windows the streams
// yield.
//
// Shuffling is local: each epoch re-reads the stream in order and
// shuffles within the bounded buffer, so the training trajectory differs
// from TrainLoop's global shuffle — equivalent in expectation, not
// bit-identical. Both streams are Reset as needed (per epoch for train,
// per evaluation for val); a stream error aborts training and is
// returned alongside the best-so-far report.
func TrainLoopStream(m SeqModel, train, val trace.WindowStream, opts TrainOpts) (TrainReport, error) {
	return trainLoop(m, &streamSource{ws: train}, &streamSource{ws: val}, opts)
}

// streamSource is the batchSource behind TrainLoopStream. Every pass
// Resets the stream; an epoch fills a Batch*shuffleChunks buffer with the
// valid windows, shuffles it, trains from it and refills until the stream
// ends, while scoring filters each Batch-sized chunk as it arrives.
type streamSource struct {
	ws  trace.WindowStream
	buf []trace.Window
}

func (s *streamSource) epoch(r *rng.Source, batch int, yield func([]trace.Window)) (int, error) {
	if err := s.ws.Reset(); err != nil {
		return 0, err
	}
	bufCap := batch * shuffleChunks
	if cap(s.buf) < bufCap {
		s.buf = make([]trace.Window, 0, bufCap)
	}
	seen := 0
	for eof := false; !eof; {
		buf := s.buf[:0]
		for !eof && len(buf) < bufCap {
			chunk, err := s.ws.Next(bufCap - len(buf))
			if err != nil {
				return seen, err
			}
			eof = len(chunk) == 0
			for _, w := range chunk {
				if ValidWindow(w) {
					buf = append(buf, w)
				}
			}
		}
		if len(buf) == 0 {
			break
		}
		r.Shuffle(len(buf), func(i, j int) { buf[i], buf[j] = buf[j], buf[i] })
		for bi := 0; bi < len(buf); bi += batch {
			yield(buf[bi:min(bi+batch, len(buf))])
		}
		seen += len(buf)
	}
	return seen, nil
}

func (s *streamSource) score(batch int, yield func([]trace.Window)) error {
	if err := s.ws.Reset(); err != nil {
		return err
	}
	for {
		chunk, err := s.ws.Next(batch)
		if err != nil {
			return err
		}
		if len(chunk) == 0 {
			return nil
		}
		if chunk, _ = FilterValid(chunk); len(chunk) > 0 {
			yield(chunk)
		}
	}
}
