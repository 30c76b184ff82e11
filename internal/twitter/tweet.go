// Package twitter is the micro-blogging substrate of §IV-B: a synthetic
// stand-in for the Choudhury et al. Twitter dataset the paper trains on
// (10M tweets, 118K users), which is not redistributable. The package
// generates a corpus of tweets — originals, retweets with in-message
// "RT @user:" ancestry, hashtags, shortened URLs, and an omnipotent
// outside-world user — from a hidden ground-truth ICM over a
// preferential-attachment follow graph, then provides the preprocessing
// the paper describes: parsing message syntax to recover attributed
// retweet chains (including recovering dropped originals) and reducing
// hashtag/URL mentions to unattributed activation-time traces.
//
// Because the generator's ground truth is known, every downstream
// experiment can be validated more strongly than the paper could
// (trained models are compared against the actual generating
// probabilities, not only against held-out behaviour).
package twitter

import (
	"fmt"
	"regexp"
	"strconv"
	"strings"

	"infoflow/internal/graph"
)

// UserID identifies a user; it doubles as the node ID in the flow graph.
type UserID = graph.NodeID

// TweetID identifies a tweet within a dataset.
type TweetID int

// Tweet is one message. Text carries everything the preprocessor is
// allowed to see (the paper's pipelines work from message syntax);
// Author and Time are the poster and posting time from the feed
// metadata.
type Tweet struct {
	ID     TweetID
	Author UserID
	Time   int
	Text   string
}

// FormatUser renders the @-reference form of a user.
func FormatUser(u UserID) string { return fmt.Sprintf("user%d", u) }

// ParseUser parses a "user<N>" name back to its ID.
func ParseUser(name string) (UserID, error) {
	if !strings.HasPrefix(name, "user") {
		return 0, fmt.Errorf("twitter: malformed user name %q", name)
	}
	n, err := strconv.Atoi(name[len("user"):])
	if err != nil || n < 0 {
		return 0, fmt.Errorf("twitter: malformed user name %q", name)
	}
	return UserID(n), nil
}

// FormatOriginal renders an original tweet body with optional hashtags
// and URLs appended in-text.
func FormatOriginal(body string, hashtags, urls []string) string {
	parts := []string{body}
	for _, h := range hashtags {
		parts = append(parts, "#"+h)
	}
	parts = append(parts, urls...)
	return strings.Join(parts, " ")
}

// FormatRetweet renders a retweet of the given tweet text by referencing
// the previous poster, exactly the "RT @user:" convention the paper's
// preprocessor keys on. Retweeting a retweet nests the references, which
// is how ancestry chains are recoverable from a single message.
func FormatRetweet(previous UserID, previousText string) string {
	return fmt.Sprintf("RT @%s: %s", FormatUser(previous), previousText)
}

// Parsed is the decomposition of one tweet's text.
type Parsed struct {
	// Ancestors is the retweet reference chain, most recent first: for
	// "RT @a: RT @b: body" it is [a, b]. Empty for original tweets.
	Ancestors []UserID
	// Body is the innermost message text, including tags and urls.
	Body string
	// Hashtags are the #tags found in the body, in order, without '#'.
	Hashtags []string
	// URLs are the in-text urls found in the body, in order.
	URLs []string
}

// IsRetweet reports whether the text carried at least one RT reference.
func (p *Parsed) IsRetweet() bool { return len(p.Ancestors) > 0 }

// Origin returns the original author implied by the chain given the
// tweet's own author: the last ancestor for retweets, the author itself
// otherwise.
func (p *Parsed) Origin(author UserID) UserID {
	if len(p.Ancestors) == 0 {
		return author
	}
	return p.Ancestors[len(p.Ancestors)-1]
}

// Chain returns the retweet chain origin-first: the ancestors from the
// oldest to the most recent, then the tweet's own author. Each adjacent
// pair is one flow link. It returns nil when any user on the chain lies
// outside [0, numUsers), so references to unknown users drop the whole
// chain as noise.
func (p *Parsed) Chain(author UserID, numUsers int) []UserID {
	chain := make([]UserID, 0, len(p.Ancestors)+1)
	for i := len(p.Ancestors) - 1; i >= 0; i-- {
		chain = append(chain, p.Ancestors[i])
	}
	chain = append(chain, author)
	for _, u := range chain {
		if u < 0 || int(u) >= numUsers {
			return nil
		}
	}
	return chain
}

var (
	rtPrefixRe = regexp.MustCompile(`^RT @([A-Za-z0-9_]+): `)
	hashtagRe  = regexp.MustCompile(`#([A-Za-z0-9_]+)`)
	urlRe      = regexp.MustCompile(`https?://[^\s]+`)
)

// ParseTweet decomposes tweet text: it strips nested "RT @user: "
// prefixes into the ancestor chain, then scans the body for hashtags and
// URLs. Unparseable user references terminate the chain (treated as
// body), matching the tolerance a real pipeline needs for noisy data.
func ParseTweet(text string) Parsed {
	var p Parsed
	rest := text
	for {
		m := rtPrefixRe.FindStringSubmatch(rest)
		if m == nil {
			break
		}
		u, err := ParseUser(m[1])
		if err != nil {
			break
		}
		p.Ancestors = append(p.Ancestors, u)
		rest = rest[len(m[0]):]
	}
	p.Body = rest
	for _, m := range hashtagRe.FindAllStringSubmatch(rest, -1) {
		p.Hashtags = append(p.Hashtags, m[1])
	}
	p.URLs = urlRe.FindAllString(rest, -1)
	return p
}
