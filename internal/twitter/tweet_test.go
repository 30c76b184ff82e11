package twitter

import (
	"testing"
	"testing/quick"

	"infoflow/internal/rng"
)

func TestUserNameRoundTrip(t *testing.T) {
	err := quick.Check(func(n uint16) bool {
		u := UserID(n)
		got, err := ParseUser(FormatUser(u))
		return err == nil && got == u
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestParseUserErrors(t *testing.T) {
	for _, bad := range []string{"", "bob", "userX", "user-3", "user"} {
		if _, err := ParseUser(bad); err == nil {
			t.Errorf("parsed %q", bad)
		}
	}
}

func TestParseOriginalTweet(t *testing.T) {
	p := ParseTweet("hello world #go #icde http://sho.rt/abc123")
	if p.IsRetweet() {
		t.Fatal("original classified as retweet")
	}
	if len(p.Hashtags) != 2 || p.Hashtags[0] != "go" || p.Hashtags[1] != "icde" {
		t.Fatalf("hashtags = %v", p.Hashtags)
	}
	if len(p.URLs) != 1 || p.URLs[0] != "http://sho.rt/abc123" {
		t.Fatalf("urls = %v", p.URLs)
	}
	if p.Origin(42) != 42 {
		t.Fatalf("origin = %v", p.Origin(42))
	}
}

func TestParseRetweetChain(t *testing.T) {
	text := FormatRetweet(7, FormatRetweet(3, "base text #x"))
	p := ParseTweet(text)
	if !p.IsRetweet() {
		t.Fatal("retweet not detected")
	}
	if len(p.Ancestors) != 2 || p.Ancestors[0] != 7 || p.Ancestors[1] != 3 {
		t.Fatalf("ancestors = %v", p.Ancestors)
	}
	if p.Body != "base text #x" {
		t.Fatalf("body = %q", p.Body)
	}
	if p.Origin(99) != 3 {
		t.Fatalf("origin = %v", p.Origin(99))
	}
	if len(p.Hashtags) != 1 || p.Hashtags[0] != "x" {
		t.Fatalf("hashtags = %v", p.Hashtags)
	}
}

// TestParsedChain checks the origin-first chain both extractors read
// links from, and that a user outside the range drops the whole chain.
func TestParsedChain(t *testing.T) {
	p := ParseTweet("RT @user4: RT @user2: RT @user9: body")
	got := p.Chain(7, 10)
	want := []UserID{9, 2, 4, 7}
	if len(got) != len(want) {
		t.Fatalf("chain = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("chain = %v, want %v", got, want)
		}
	}
	if got := p.Chain(7, 9); got != nil {
		t.Errorf("chain through user9 with 9 users = %v, want nil", got)
	}
	if got := p.Chain(-1, 10); got != nil {
		t.Errorf("chain to author -1 = %v, want nil", got)
	}
	orig := ParseTweet("just a body")
	if got := orig.Chain(3, 10); len(got) != 1 || got[0] != 3 {
		t.Errorf("original's chain = %v, want [3]", got)
	}
}

func TestParseMalformedRTStopsChain(t *testing.T) {
	p := ParseTweet("RT @nosuch: body")
	if p.IsRetweet() {
		t.Fatal("malformed reference treated as ancestry")
	}
	if p.Body != "RT @nosuch: body" {
		t.Fatalf("body = %q", p.Body)
	}
}

func TestRetweetFormatRoundTripProperty(t *testing.T) {
	r := rng.New(1)
	err := quick.Check(func(depthRaw uint8, a, b, c uint16) bool {
		depth := int(depthRaw % 4)
		users := []UserID{UserID(a % 1000), UserID(b % 1000), UserID(c % 1000)}
		body := "the payload #tag http://sho.rt/zz"
		text := body
		var wantChain []UserID
		for i := 0; i < depth; i++ {
			u := users[i%len(users)]
			text = FormatRetweet(u, text)
			wantChain = append([]UserID{u}, wantChain...)
		}
		p := ParseTweet(text)
		if len(p.Ancestors) != depth {
			return false
		}
		for i := range wantChain {
			if p.Ancestors[i] != wantChain[i] {
				return false
			}
		}
		return p.Body == body
	}, &quick.Config{MaxCount: 200})
	if err != nil {
		t.Fatal(err)
	}
	_ = r
}

func TestFormatOriginal(t *testing.T) {
	got := FormatOriginal("hi", []string{"a", "b"}, []string{"http://x.y/1"})
	want := "hi #a #b http://x.y/1"
	if got != want {
		t.Fatalf("got %q want %q", got, want)
	}
	p := ParseTweet(got)
	if len(p.Hashtags) != 2 || len(p.URLs) != 1 {
		t.Fatalf("parse back: %+v", p)
	}
}
