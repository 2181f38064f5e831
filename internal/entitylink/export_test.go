package entitylink

// The oracle and its inputs, for the tests of package entitylink_test:
// they hold internal/dve's workspace path to the reference, and dve
// imports this package.
var (
	LinkReference             = linkReference
	AdversarialKB             = adversarialKB
	AdversarialTexts          = adversarialTexts
	CheckLinkMatchesReference = checkLinkMatchesReference
)
