package kb

import (
	"fmt"
	"strings"
	"sync"

	"docs/internal/model"
)

// entry is one row of the curated catalogue. domains and aliases are
// pipe-separated lists; context is a space-separated keyword bag.
type entry struct {
	id      string
	name    string
	domains string
	prior   float64
	context string
	aliases string
	cat     string // catalogue category used by the dataset generators
}

// Catalogue categories exposed to the dataset generators.
const (
	CatNBAPlayer  = "nba_player"
	CatNBATeam    = "nba_team"
	CatFood       = "food"
	CatCar        = "car"
	CatCountry    = "country"
	CatMountain   = "mountain"
	CatFilm       = "film"
	CatActor      = "actor"
	CatPolitician = "politician"
	CatBusiness   = "business"
	CatCompany    = "company"
	CatScientist  = "scientist"
	CatMusician   = "musician"
	CatAthlete    = "athlete"
	CatCity       = "city"
)

var catalog = []entry{
	// --- NBA players (Sports; Michael Jordan also Entertain via Space Jam) ---
	{"person/michael_jordan", "Michael Jordan", "Sports|Entertain", 0.70, "basketball nba bulls championships player dunk court score team win game height position", "MJ|Air Jordan", CatNBAPlayer},
	{"person/michael_i_jordan", "Michael I. Jordan", "Science|Computers", 0.20, "machine learning professor berkeley statistics research ai computer", "Michael Jordan", CatScientist},
	{"person/michael_b_jordan", "Michael B. Jordan", "Entertain", 0.10, "actor film movie creed star role cast", "Michael Jordan", CatActor},
	{"person/kobe_bryant", "Kobe Bryant", "Sports", 1.0, "basketball nba lakers championships player score mamba game height position", "Kobe", CatNBAPlayer},
	{"person/lebron_james", "LeBron James", "Sports", 1.0, "basketball nba cavaliers heat lakers championships player game height position", "LeBron|King James", CatNBAPlayer},
	{"person/stephen_curry", "Stephen Curry", "Sports", 1.0, "basketball nba warriors three pointer championships player game height position", "Steph Curry|Curry", CatNBAPlayer},
	{"person/kevin_durant", "Kevin Durant", "Sports", 1.0, "basketball nba thunder warriors player scoring game height position", "KD", CatNBAPlayer},
	{"person/shaquille_oneal", "Shaquille O'Neal", "Sports", 1.0, "basketball nba lakers center championships player game height position", "Shaq", CatNBAPlayer},
	{"person/tim_duncan", "Tim Duncan", "Sports", 1.0, "basketball nba spurs championships player fundamental game height position", "", CatNBAPlayer},
	{"person/magic_johnson", "Magic Johnson", "Sports", 1.0, "basketball nba lakers point guard championships player game height position", "", CatNBAPlayer},
	{"person/larry_bird", "Larry Bird", "Sports", 1.0, "basketball nba celtics forward championships player game height position", "", CatNBAPlayer},
	{"person/kareem_abdul_jabbar", "Kareem Abdul-Jabbar", "Sports", 1.0, "basketball nba lakers skyhook championships player game height position", "Kareem", CatNBAPlayer},
	{"person/dirk_nowitzki", "Dirk Nowitzki", "Sports", 1.0, "basketball nba mavericks forward championships player game height position", "Dirk", CatNBAPlayer},
	{"person/allen_iverson", "Allen Iverson", "Sports", 1.0, "basketball nba sixers guard crossover player game height position", "", CatNBAPlayer},
	{"person/dwyane_wade", "Dwyane Wade", "Sports", 1.0, "basketball nba heat guard championships player game height position", "", CatNBAPlayer},
	{"person/chris_paul", "Chris Paul", "Sports", 1.0, "basketball nba clippers rockets point guard player game height position", "CP3", CatNBAPlayer},
	{"person/james_harden", "James Harden", "Sports", 1.0, "basketball nba rockets beard guard scoring player game height position", "", CatNBAPlayer},
	{"person/russell_westbrook", "Russell Westbrook", "Sports", 1.0, "basketball nba thunder triple double guard player game height position", "", CatNBAPlayer},
	{"person/yao_ming", "Yao Ming", "Sports", 1.0, "basketball nba rockets center china player game height position", "", CatNBAPlayer},
	{"person/kevin_garnett", "Kevin Garnett", "Sports", 1.0, "basketball nba timberwolves celtics forward player game height position", "KG", CatNBAPlayer},
	{"person/paul_pierce", "Paul Pierce", "Sports", 1.0, "basketball nba celtics forward truth player game height position", "", CatNBAPlayer},
	{"person/tony_parker", "Tony Parker", "Sports", 1.0, "basketball nba spurs guard france player game height position", "", CatNBAPlayer},
	{"person/scottie_pippen", "Scottie Pippen", "Sports", 1.0, "basketball nba bulls forward championships player game height position", "", CatNBAPlayer},
	{"person/dennis_rodman", "Dennis Rodman", "Sports", 1.0, "basketball nba bulls pistons rebound player game height position", "", CatNBAPlayer},
	{"person/charles_barkley", "Charles Barkley", "Sports", 1.0, "basketball nba suns sixers forward player game height position", "", CatNBAPlayer},
	{"person/karl_malone", "Karl Malone", "Sports", 1.0, "basketball nba jazz mailman forward player game height position", "", CatNBAPlayer},
	{"person/john_stockton", "John Stockton", "Sports", 1.0, "basketball nba jazz assists guard player game height position", "", CatNBAPlayer},
	{"person/hakeem_olajuwon", "Hakeem Olajuwon", "Sports", 1.0, "basketball nba rockets dream center player game height position", "", CatNBAPlayer},
	{"person/patrick_ewing", "Patrick Ewing", "Sports", 1.0, "basketball nba knicks center player game height position", "", CatNBAPlayer},
	{"person/klay_thompson", "Klay Thompson", "Sports", 1.0, "basketball nba warriors splash shooter player game height position", "", CatNBAPlayer},
	{"person/dwight_howard", "Dwight Howard", "Sports", 1.0, "basketball nba magic lakers center player game height position", "", CatNBAPlayer},

	// --- NBA teams ---
	{"team/golden_state_warriors", "Golden State Warriors", "Sports", 1.0, "basketball nba team championships oakland win season", "Warriors", CatNBATeam},
	{"team/los_angeles_lakers", "Los Angeles Lakers", "Sports", 1.0, "basketball nba team championships los angeles win season", "Lakers", CatNBATeam},
	{"team/chicago_bulls", "Chicago Bulls", "Sports", 1.0, "basketball nba team championships chicago win season", "Bulls", CatNBATeam},
	{"team/boston_celtics", "Boston Celtics", "Sports", 1.0, "basketball nba team championships boston win season", "Celtics", CatNBATeam},
	{"team/san_antonio_spurs", "San Antonio Spurs", "Sports", 1.0, "basketball nba team championships san antonio win season", "Spurs", CatNBATeam},
	{"team/miami_heat", "Miami Heat", "Sports", 1.0, "basketball nba team championships miami win season", "Heat", CatNBATeam},
	{"team/cleveland_cavaliers", "Cleveland Cavaliers", "Sports", 1.0, "basketball nba team championships cleveland win season", "Cavaliers|Cavs", CatNBATeam},
	{"team/houston_rockets", "Houston Rockets", "Sports", 1.0, "basketball nba team championships houston win season", "Rockets", CatNBATeam},
	{"team/new_york_knicks", "New York Knicks", "Sports", 1.0, "basketball nba team new york win season", "Knicks", CatNBATeam},
	{"team/dallas_mavericks", "Dallas Mavericks", "Sports", 1.0, "basketball nba team championships dallas win season", "Mavericks|Mavs", CatNBATeam},
	{"team/oklahoma_city_thunder", "Oklahoma City Thunder", "Sports", 1.0, "basketball nba team oklahoma win season", "Thunder", CatNBATeam},
	{"team/toronto_raptors", "Toronto Raptors", "Sports", 1.0, "basketball nba team toronto win season", "Raptors", CatNBATeam},
	{"team/phoenix_suns", "Phoenix Suns", "Sports", 0.6, "basketball nba team phoenix win season", "Suns", CatNBATeam},
	{"team/utah_jazz", "Utah Jazz", "Sports", 1.0, "basketball nba team utah win season", "Jazz", CatNBATeam},
	{"team/detroit_pistons", "Detroit Pistons", "Sports", 1.0, "basketball nba team championships detroit win season", "Pistons", CatNBATeam},

	// --- Organisations around the NBA running example ---
	{"org/national_basketball_association", "National Basketball Association", "Sports", 0.8, "basketball league teams players season championships game", "NBA", ""},
	{"org/national_bar_association", "National Bar Association", "Society", 0.2, "lawyers attorneys legal association bar justice", "NBA", ""},

	// --- Foods (Food domain; some also Health/Dining) ---
	{"food/chocolate", "Chocolate", "Food", 1.0, "calories sweet cocoa dessert eat sugar taste", "", CatFood},
	{"food/honey", "Honey", "Food|Health", 1.0, "calories sweet bees natural eat sugar taste", "", CatFood},
	{"food/pizza", "Pizza", "Food|Dining", 1.0, "calories cheese italian slice eat restaurant taste", "", CatFood},
	{"food/rice", "Rice", "Food", 1.0, "calories grain asia staple eat carbohydrate", "", CatFood},
	{"food/bread", "Bread", "Food", 1.0, "calories wheat bakery loaf eat carbohydrate", "", CatFood},
	{"food/cheese", "Cheese", "Food", 1.0, "calories dairy milk protein eat fat taste", "", CatFood},
	{"food/butter", "Butter", "Food", 1.0, "calories dairy fat spread eat cooking", "", CatFood},
	{"food/apple_fruit", "Apple", "Food|Health", 0.45, "fruit calories vitamin tree eat healthy orchard juicy", "Apple Fruit", CatFood},
	{"food/banana", "Banana", "Food|Health", 1.0, "fruit calories potassium yellow eat healthy", "", CatFood},
	{"food/orange_fruit", "Orange", "Food|Health", 1.0, "fruit calories vitamin citrus juice eat healthy", "", CatFood},
	{"food/avocado", "Avocado", "Food|Health", 1.0, "fruit calories fat toast green eat healthy", "", CatFood},
	{"food/almond", "Almond", "Food|Health", 1.0, "nut calories protein snack eat healthy", "Almonds", CatFood},
	{"food/peanut", "Peanut", "Food", 1.0, "nut calories protein butter snack eat allergy", "Peanuts", CatFood},
	{"food/pasta", "Pasta", "Food|Dining", 1.0, "calories italian noodles carbohydrate eat restaurant", "", CatFood},
	{"food/potato", "Potato", "Food", 1.0, "calories vegetable starch fries eat carbohydrate", "Potatoes", CatFood},
	{"food/tomato", "Tomato", "Food", 1.0, "vegetable fruit calories salad sauce eat healthy", "Tomatoes", CatFood},
	{"food/fried_chicken", "Fried Chicken", "Food|Dining", 1.0, "calories meat protein crispy eat restaurant fast", "", CatFood},
	{"food/beef_steak", "Beef Steak", "Food|Dining", 1.0, "calories meat protein grill eat restaurant", "Steak", CatFood},
	{"food/salmon", "Salmon", "Food|Health", 1.0, "fish calories protein omega eat healthy", "", CatFood},
	{"food/tofu", "Tofu", "Food|Health", 1.0, "soy calories protein vegetarian eat healthy", "", CatFood},
	{"food/yogurt", "Yogurt", "Food|Health", 1.0, "dairy calories probiotic breakfast eat healthy", "Yoghurt", CatFood},
	{"food/ice_cream", "Ice Cream", "Food|Dining", 1.0, "calories sweet frozen dessert eat sugar", "", CatFood},
	{"food/olive_oil", "Olive Oil", "Food|Health", 1.0, "calories fat mediterranean cooking eat healthy", "", CatFood},
	{"food/white_sugar", "White Sugar", "Food", 1.0, "calories sweet carbohydrate baking eat", "Sugar", CatFood},
	{"food/egg", "Egg", "Food|Health", 1.0, "calories protein breakfast yolk eat", "Eggs", CatFood},
	{"food/whole_milk", "Whole Milk", "Food|Health", 1.0, "dairy calories calcium drink breakfast", "Milk", CatFood},
	{"food/oatmeal", "Oatmeal", "Food|Health", 1.0, "calories grain fiber breakfast eat healthy", "Oats", CatFood},
	{"food/broccoli", "Broccoli", "Food|Health", 1.0, "vegetable calories vitamin green eat healthy", "", CatFood},
	{"food/lettuce", "Lettuce", "Food|Health", 1.0, "vegetable calories salad green eat healthy", "", CatFood},
	{"food/bacon", "Bacon", "Food", 1.0, "calories meat fat breakfast crispy eat", "", CatFood},
	{"food/kobe_beef", "Kobe Beef", "Food|Dining", 0.15, "beef wagyu japan expensive marbled eat restaurant", "Kobe", CatFood},

	// --- Car models (Cars) ---
	{"car/toyota_camry", "Toyota Camry", "Cars", 1.0, "sedan mpg engine horsepower drive reliability price fuel", "Camry", CatCar},
	{"car/honda_civic", "Honda Civic", "Cars", 1.0, "sedan compact mpg engine horsepower drive price fuel", "Civic", CatCar},
	{"car/ford_mustang", "Ford Mustang", "Cars", 1.0, "muscle coupe engine horsepower drive speed price", "Mustang", CatCar},
	{"car/chevrolet_corvette", "Chevrolet Corvette", "Cars", 1.0, "sports coupe engine horsepower drive speed price", "Corvette", CatCar},
	{"car/tesla_model_s", "Tesla Model S", "Cars|Electronics", 1.0, "electric sedan battery range autopilot drive price", "Model S", CatCar},
	{"car/bmw_3_series", "BMW 3 Series", "Cars", 1.0, "sedan luxury engine horsepower drive handling price", "BMW 3", CatCar},
	{"car/mercedes_c_class", "Mercedes-Benz C-Class", "Cars", 1.0, "sedan luxury engine horsepower drive comfort price", "C-Class", CatCar},
	{"car/audi_a4", "Audi A4", "Cars", 1.0, "sedan luxury quattro engine horsepower drive price", "A4", CatCar},
	{"car/porsche_911", "Porsche 911", "Cars", 1.0, "sports coupe engine horsepower drive speed price", "911", CatCar},
	{"car/ferrari_458", "Ferrari 458", "Cars", 1.0, "supercar italian engine horsepower drive speed price", "458 Italia", CatCar},
	{"car/lamborghini_aventador", "Lamborghini Aventador", "Cars", 1.0, "supercar italian engine horsepower drive speed price", "Aventador", CatCar},
	{"car/volkswagen_golf", "Volkswagen Golf", "Cars", 1.0, "hatchback compact mpg engine drive price fuel", "VW Golf", CatCar},
	{"car/nissan_altima", "Nissan Altima", "Cars", 1.0, "sedan mpg engine horsepower drive price fuel", "Altima", CatCar},
	{"car/hyundai_sonata", "Hyundai Sonata", "Cars", 1.0, "sedan mpg engine horsepower drive price fuel", "Sonata", CatCar},
	{"car/jeep_wrangler", "Jeep Wrangler", "Cars", 1.0, "suv offroad four wheel drive terrain price", "Wrangler", CatCar},
	{"car/subaru_outback", "Subaru Outback", "Cars", 1.0, "wagon awd mpg engine drive price fuel", "Outback", CatCar},
	{"car/mazda_mx5", "Mazda MX-5", "Cars", 1.0, "roadster convertible engine drive handling price", "Miata", CatCar},
	{"car/dodge_charger", "Dodge Charger", "Cars", 1.0, "muscle sedan engine horsepower drive speed price", "Charger", CatCar},
	{"car/jaguar_ftype", "Jaguar F-Type", "Cars", 0.55, "sports coupe british engine horsepower drive speed price", "Jaguar", CatCar},
	{"car/mini_cooper", "Mini Cooper", "Cars", 1.0, "compact hatchback british engine drive price fuel", "Mini", CatCar},
	{"car/ford_f150", "Ford F-150", "Cars", 1.0, "pickup truck towing engine horsepower drive price", "F-150", CatCar},
	{"car/toyota_prius", "Toyota Prius", "Cars|Environment", 1.0, "hybrid mpg battery fuel economy drive price", "Prius", CatCar},

	// --- Countries (Travel; a few also Politics) ---
	{"country/united_states", "United States", "Travel|Politics", 1.0, "country population area capital visit continent america", "USA|United States of America|America", CatCountry},
	{"country/china", "China", "Travel|Politics", 1.0, "country population area capital visit continent asia", "", CatCountry},
	{"country/india", "India", "Travel", 1.0, "country population area capital visit continent asia", "", CatCountry},
	{"country/brazil", "Brazil", "Travel", 1.0, "country population area capital visit continent america", "", CatCountry},
	{"country/russia", "Russia", "Travel|Politics", 1.0, "country population area capital visit continent europe asia", "", CatCountry},
	{"country/japan", "Japan", "Travel", 1.0, "country population area capital visit continent asia island", "", CatCountry},
	{"country/germany", "Germany", "Travel", 1.0, "country population area capital visit continent europe", "", CatCountry},
	{"country/france", "France", "Travel", 1.0, "country population area capital visit continent europe", "", CatCountry},
	{"country/united_kingdom", "United Kingdom", "Travel|Politics", 1.0, "country population area capital visit continent europe island", "UK|Britain|Great Britain", CatCountry},
	{"country/italy", "Italy", "Travel", 1.0, "country population area capital visit continent europe", "", CatCountry},
	{"country/canada", "Canada", "Travel", 1.0, "country population area capital visit continent america", "", CatCountry},
	{"country/australia", "Australia", "Travel", 1.0, "country population area capital visit continent island", "", CatCountry},
	{"country/mexico", "Mexico", "Travel", 1.0, "country population area capital visit continent america", "", CatCountry},
	{"country/spain", "Spain", "Travel", 1.0, "country population area capital visit continent europe", "", CatCountry},
	{"country/indonesia", "Indonesia", "Travel", 1.0, "country population area capital visit continent asia island", "", CatCountry},
	{"country/turkey_country", "Turkey", "Travel", 0.6, "country population area capital visit continent europe asia", "Turkey", CatCountry},
	{"food/turkey_meat", "Turkey Meat", "Food", 0.4, "calories meat protein thanksgiving roast eat", "Turkey", CatFood},
	{"country/egypt", "Egypt", "Travel", 1.0, "country population area capital visit continent africa pyramids", "", CatCountry},
	{"country/nigeria", "Nigeria", "Travel", 1.0, "country population area capital visit continent africa", "", CatCountry},
	{"country/argentina", "Argentina", "Travel", 1.0, "country population area capital visit continent america", "", CatCountry},
	{"country/south_korea", "South Korea", "Travel", 1.0, "country population area capital visit continent asia", "Korea", CatCountry},
	{"country/netherlands", "Netherlands", "Travel", 1.0, "country population area capital visit continent europe", "Holland", CatCountry},
	{"country/switzerland", "Switzerland", "Travel", 1.0, "country population area capital visit continent europe alps", "", CatCountry},
	{"country/sweden", "Sweden", "Travel", 1.0, "country population area capital visit continent europe nordic", "", CatCountry},
	{"country/norway", "Norway", "Travel", 1.0, "country population area capital visit continent europe nordic fjord", "", CatCountry},
	{"country/greece", "Greece", "Travel", 1.0, "country population area capital visit continent europe islands", "", CatCountry},
	{"country/portugal", "Portugal", "Travel", 1.0, "country population area capital visit continent europe", "", CatCountry},
	{"country/thailand", "Thailand", "Travel", 1.0, "country population area capital visit continent asia beaches", "", CatCountry},
	{"country/vietnam", "Vietnam", "Travel", 1.0, "country population area capital visit continent asia", "", CatCountry},

	// --- Mountains (Science; the paper maps 4D's Mountain domain to Science) ---
	{"mountain/mount_everest", "Mount Everest", "Science", 1.0, "mountain height peak summit climb meters himalaya elevation", "Everest", CatMountain},
	{"mountain/k2", "K2", "Science", 1.0, "mountain height peak summit climb meters karakoram elevation", "", CatMountain},
	{"mountain/kilimanjaro", "Mount Kilimanjaro", "Science", 1.0, "mountain height peak summit climb meters africa elevation", "Kilimanjaro", CatMountain},
	{"mountain/denali", "Denali", "Science", 1.0, "mountain height peak summit climb meters alaska elevation", "Mount McKinley", CatMountain},
	{"mountain/mont_blanc", "Mont Blanc", "Science", 1.0, "mountain height peak summit climb meters alps elevation", "", CatMountain},
	{"mountain/matterhorn", "Matterhorn", "Science", 1.0, "mountain height peak summit climb meters alps elevation", "", CatMountain},
	{"mountain/mount_fuji", "Mount Fuji", "Science", 1.0, "mountain height peak summit climb meters japan volcano elevation", "Fuji", CatMountain},
	{"mountain/aconcagua", "Aconcagua", "Science", 1.0, "mountain height peak summit climb meters andes elevation", "", CatMountain},
	{"mountain/annapurna", "Annapurna", "Science", 1.0, "mountain height peak summit climb meters himalaya elevation", "", CatMountain},
	{"mountain/kangchenjunga", "Kangchenjunga", "Science", 1.0, "mountain height peak summit climb meters himalaya elevation", "", CatMountain},
	{"mountain/lhotse", "Lhotse", "Science", 1.0, "mountain height peak summit climb meters himalaya elevation", "", CatMountain},
	{"mountain/makalu", "Makalu", "Science", 1.0, "mountain height peak summit climb meters himalaya elevation", "", CatMountain},
	{"mountain/mount_rainier", "Mount Rainier", "Science", 1.0, "mountain height peak summit climb meters cascade volcano elevation", "Rainier", CatMountain},
	{"mountain/mount_elbrus", "Mount Elbrus", "Science", 1.0, "mountain height peak summit climb meters caucasus elevation", "Elbrus", CatMountain},

	// --- Films (Entertain; Space Jam also Sports) ---
	{"film/titanic", "Titanic", "Entertain", 1.0, "film movie oscar director box office actor released year", "", CatFilm},
	{"film/inception", "Inception", "Entertain", 1.0, "film movie dream director nolan box office released year", "", CatFilm},
	{"film/the_godfather", "The Godfather", "Entertain", 1.0, "film movie mafia oscar director box office released year", "Godfather", CatFilm},
	{"film/avatar", "Avatar", "Entertain", 1.0, "film movie pandora director cameron box office released year", "", CatFilm},
	{"film/the_dark_knight", "The Dark Knight", "Entertain", 1.0, "film movie batman joker director box office released year", "Dark Knight", CatFilm},
	{"film/forrest_gump", "Forrest Gump", "Entertain", 1.0, "film movie oscar hanks director box office released year", "", CatFilm},
	{"film/pulp_fiction", "Pulp Fiction", "Entertain", 1.0, "film movie tarantino director box office released year", "", CatFilm},
	{"film/the_matrix", "The Matrix", "Entertain", 1.0, "film movie neo director box office released year", "Matrix", CatFilm},
	{"film/jurassic_park", "Jurassic Park", "Entertain", 1.0, "film movie dinosaurs spielberg director box office released year", "", CatFilm},
	{"film/star_wars", "Star Wars", "Entertain", 1.0, "film movie jedi lucas director box office released year", "", CatFilm},
	{"film/shawshank_redemption", "The Shawshank Redemption", "Entertain", 1.0, "film movie prison director box office released year", "Shawshank", CatFilm},
	{"film/gladiator", "Gladiator", "Entertain", 1.0, "film movie rome oscar director box office released year", "", CatFilm},
	{"film/interstellar", "Interstellar", "Entertain", 1.0, "film movie space nolan director box office released year", "", CatFilm},
	{"film/casablanca", "Casablanca", "Entertain", 1.0, "film movie classic oscar director released year", "", CatFilm},
	{"film/goodfellas", "Goodfellas", "Entertain", 1.0, "film movie mafia scorsese director released year", "", CatFilm},
	{"film/the_avengers", "The Avengers", "Entertain", 1.0, "film movie marvel superhero director box office released year", "Avengers", CatFilm},
	{"film/frozen", "Frozen", "Entertain", 1.0, "film movie disney animated box office released year", "", CatFilm},
	{"film/toy_story", "Toy Story", "Entertain", 1.0, "film movie pixar animated box office released year", "", CatFilm},
	{"film/the_lion_king", "The Lion King", "Entertain", 1.0, "film movie disney animated box office released year", "Lion King", CatFilm},
	{"film/schindlers_list", "Schindler's List", "Entertain", 1.0, "film movie oscar spielberg director released year", "", CatFilm},
	{"film/fight_club", "Fight Club", "Entertain", 1.0, "film movie fincher director released year", "", CatFilm},
	{"film/la_la_land", "La La Land", "Entertain", 1.0, "film movie musical oscar director box office released year", "", CatFilm},
	{"film/space_jam", "Space Jam", "Entertain|Sports", 1.0, "film movie basketball cartoon jordan box office released year", "", CatFilm},
	{"film/the_revenant", "The Revenant", "Entertain", 1.0, "film movie oscar dicaprio director box office released year", "Revenant", CatFilm},

	// --- Actors (Entertain) ---
	{"person/leonardo_dicaprio", "Leonardo DiCaprio", "Entertain", 1.0, "actor film movie oscar titanic star role", "DiCaprio|Leo DiCaprio", CatActor},
	{"person/tom_hanks", "Tom Hanks", "Entertain", 1.0, "actor film movie oscar star role", "", CatActor},
	{"person/meryl_streep", "Meryl Streep", "Entertain", 1.0, "actress film movie oscar star role", "", CatActor},
	{"person/brad_pitt", "Brad Pitt", "Entertain", 1.0, "actor film movie star role", "", CatActor},
	{"person/johnny_depp", "Johnny Depp", "Entertain", 1.0, "actor film movie pirates star role", "", CatActor},
	{"person/scarlett_johansson", "Scarlett Johansson", "Entertain", 1.0, "actress film movie marvel star role", "", CatActor},
	{"person/robert_de_niro", "Robert De Niro", "Entertain", 1.0, "actor film movie oscar star role", "De Niro", CatActor},
	{"person/al_pacino", "Al Pacino", "Entertain", 1.0, "actor film movie godfather star role", "", CatActor},
	{"person/denzel_washington", "Denzel Washington", "Entertain", 0.5, "actor film movie oscar star role", "Washington", CatActor},
	{"person/morgan_freeman", "Morgan Freeman", "Entertain", 1.0, "actor film movie voice star role", "", CatActor},
	{"person/natalie_portman", "Natalie Portman", "Entertain", 1.0, "actress film movie oscar star role", "", CatActor},
	{"person/will_smith", "Will Smith", "Entertain", 1.0, "actor film movie star role", "", CatActor},
	{"person/angelina_jolie", "Angelina Jolie", "Entertain", 1.0, "actress film movie star role", "", CatActor},
	{"person/jennifer_lawrence", "Jennifer Lawrence", "Entertain", 1.0, "actress film movie oscar hunger star role", "", CatActor},
	{"person/christian_bale", "Christian Bale", "Entertain", 1.0, "actor film movie batman star role", "", CatActor},
	{"person/anne_hathaway", "Anne Hathaway", "Entertain", 1.0, "actress film movie oscar star role", "", CatActor},
	{"person/emma_watson", "Emma Watson", "Entertain", 1.0, "actress film movie harry potter star role", "", CatActor},
	{"person/matt_damon", "Matt Damon", "Entertain", 1.0, "actor film movie bourne star role", "", CatActor},
	{"person/kate_winslet", "Kate Winslet", "Entertain", 1.0, "actress film movie titanic oscar star role", "", CatActor},
	{"person/joaquin_phoenix", "Joaquin Phoenix", "Entertain", 0.3, "actor film movie joker star role", "Phoenix", CatActor},

	// --- Politicians (Politics) ---
	{"person/barack_obama", "Barack Obama", "Politics", 1.0, "president election democrat senate white house policy born", "Obama", CatPolitician},
	{"person/donald_trump", "Donald Trump", "Politics|Business", 1.0, "president election republican white house policy tower born", "Trump", CatPolitician},
	{"person/hillary_clinton", "Hillary Clinton", "Politics", 1.0, "secretary state election democrat senate policy born", "Clinton", CatPolitician},
	{"person/george_washington", "George Washington", "Politics", 0.5, "president founding father revolution united states born", "Washington", CatPolitician},
	{"person/abraham_lincoln", "Abraham Lincoln", "Politics", 1.0, "president civil war emancipation united states born", "Lincoln", CatPolitician},
	{"person/angela_merkel", "Angela Merkel", "Politics", 1.0, "chancellor germany election policy european born", "Merkel", CatPolitician},
	{"person/vladimir_putin", "Vladimir Putin", "Politics", 1.0, "president russia kremlin election policy born", "Putin", CatPolitician},
	{"person/winston_churchill", "Winston Churchill", "Politics", 1.0, "prime minister britain war speech policy born", "Churchill", CatPolitician},
	{"person/john_f_kennedy", "John F. Kennedy", "Politics", 1.0, "president assassination democrat united states born", "JFK|Kennedy", CatPolitician},
	{"person/ronald_reagan", "Ronald Reagan", "Politics|Entertain", 1.0, "president republican actor united states policy born", "Reagan", CatPolitician},
	{"person/franklin_roosevelt", "Franklin D. Roosevelt", "Politics", 1.0, "president new deal war united states policy born", "FDR|Roosevelt", CatPolitician},
	{"person/margaret_thatcher", "Margaret Thatcher", "Politics", 1.0, "prime minister britain iron lady policy born", "Thatcher", CatPolitician},
	{"person/nelson_mandela", "Nelson Mandela", "Politics|Society", 1.0, "president south africa apartheid freedom born", "Mandela", CatPolitician},
	{"person/justin_trudeau", "Justin Trudeau", "Politics", 1.0, "prime minister canada liberal policy born", "Trudeau", CatPolitician},
	{"person/bernie_sanders", "Bernie Sanders", "Politics", 1.0, "senator vermont election democrat policy born", "Sanders", CatPolitician},
	{"person/queen_elizabeth_ii", "Queen Elizabeth II", "Politics|Society", 0.4, "monarch britain royal crown reign born", "Queen|The Queen", CatPolitician},

	// --- Business people (Business) ---
	{"person/bill_gates", "Bill Gates", "Business|Computers", 1.0, "microsoft founder billionaire philanthropy wealth company born age", "Gates", CatBusiness},
	{"person/steve_jobs", "Steve Jobs", "Business|Computers", 1.0, "apple founder iphone ceo company wealth born age", "Jobs", CatBusiness},
	{"person/elon_musk", "Elon Musk", "Business|Science", 1.0, "tesla spacex founder ceo rockets company wealth born age", "Musk", CatBusiness},
	{"person/warren_buffett", "Warren Buffett", "Business", 1.0, "berkshire investor billionaire omaha wealth company born age", "Buffett", CatBusiness},
	{"person/jeff_bezos", "Jeff Bezos", "Business|Computers", 1.0, "amazon founder ceo billionaire wealth company born age", "Bezos", CatBusiness},
	{"person/mark_zuckerberg", "Mark Zuckerberg", "Business|Computers", 1.0, "facebook founder ceo social network wealth company born age", "Zuckerberg", CatBusiness},
	{"person/larry_page", "Larry Page", "Business|Computers", 1.0, "google founder search engine wealth company born age", "", CatBusiness},
	{"person/sergey_brin", "Sergey Brin", "Business|Computers", 1.0, "google founder search engine wealth company born age", "Brin", CatBusiness},
	{"person/jack_ma", "Jack Ma", "Business", 1.0, "alibaba founder china ecommerce wealth company born age", "", CatBusiness},
	{"person/richard_branson", "Richard Branson", "Business|Travel", 1.0, "virgin founder airline island wealth company born age", "Branson", CatBusiness},

	// --- Companies (Business + Computers where apt) ---
	{"company/microsoft", "Microsoft", "Business|Computers", 1.0, "software windows company stock revenue ceo technology", "", CatCompany},
	{"company/apple_inc", "Apple Inc.", "Business|Computers|Electronics", 0.55, "iphone mac company stock revenue ceo technology cupertino", "Apple", CatCompany},
	{"company/google", "Google", "Business|Computers", 1.0, "search engine company stock revenue ceo technology android", "Alphabet", CatCompany},
	{"company/amazon_inc", "Amazon.com", "Business|Computers", 0.6, "ecommerce cloud company stock revenue ceo technology shopping", "Amazon", CatCompany},
	{"geo/amazon_river", "Amazon River", "Science|Environment|Travel", 0.4, "river rainforest brazil south america water basin nature", "Amazon", ""},
	{"company/facebook", "Facebook", "Business|Computers", 1.0, "social network company stock revenue ceo technology", "Meta", CatCompany},
	{"company/tesla_inc", "Tesla Inc.", "Business|Cars", 0.5, "electric cars company stock revenue ceo battery factory", "Tesla", CatCompany},
	{"person/nikola_tesla", "Nikola Tesla", "Science", 0.5, "inventor electricity alternating current physics coil born", "Tesla", CatScientist},
	{"company/berkshire_hathaway", "Berkshire Hathaway", "Business", 1.0, "holding investment company stock revenue omaha", "Berkshire", CatCompany},
	{"company/walmart", "Walmart", "Business", 1.0, "retail stores company stock revenue shopping", "", CatCompany},
	{"company/coca_cola", "Coca-Cola", "Business|Food", 1.0, "beverage soda company stock revenue brand drink", "Coke", CatCompany},
	{"company/mcdonalds", "McDonald's", "Business|Dining", 1.0, "fast food restaurant company stock revenue burger", "McDonalds", CatCompany},

	// --- Scientists (Science) ---
	{"person/albert_einstein", "Albert Einstein", "Science", 1.0, "physics relativity nobel theory genius born discovered", "Einstein", CatScientist},
	{"person/isaac_newton", "Isaac Newton", "Science", 1.0, "physics gravity calculus laws motion born discovered", "Newton", CatScientist},
	{"person/marie_curie", "Marie Curie", "Science", 1.0, "physics chemistry radioactivity nobel born discovered", "Curie", CatScientist},
	{"person/charles_darwin", "Charles Darwin", "Science", 1.0, "evolution biology species natural selection born discovered", "Darwin", CatScientist},
	{"person/stephen_hawking", "Stephen Hawking", "Science", 1.0, "physics black holes cosmology cambridge born discovered", "Hawking", CatScientist},
	{"person/galileo_galilei", "Galileo Galilei", "Science", 1.0, "astronomy telescope physics italy born discovered", "Galileo", CatScientist},
	{"person/ada_lovelace", "Ada Lovelace", "Science|Computers", 1.0, "mathematician first programmer analytical engine born", "Lovelace", CatScientist},
	{"person/alan_turing", "Alan Turing", "Science|Computers", 1.0, "computer science enigma machine mathematician born", "Turing", CatScientist},
	{"person/richard_feynman", "Richard Feynman", "Science", 1.0, "physics quantum nobel diagrams born discovered", "Feynman", CatScientist},
	{"person/niels_bohr", "Niels Bohr", "Science", 1.0, "physics atom quantum nobel born discovered", "Bohr", CatScientist},
	{"person/rosalind_franklin", "Rosalind Franklin", "Science", 1.0, "dna crystallography biology born discovered", "Franklin", CatScientist},
	{"person/carl_sagan", "Carl Sagan", "Science|Entertain", 1.0, "astronomy cosmos television author born discovered", "Sagan", CatScientist},

	// --- Musicians (Entertain) ---
	{"music/the_beatles", "The Beatles", "Entertain", 1.0, "band music album song rock liverpool hit", "Beatles", CatMusician},
	{"person/michael_jackson", "Michael Jackson", "Entertain", 1.0, "singer music album song pop thriller hit", "", CatMusician},
	{"person/madonna", "Madonna", "Entertain", 1.0, "singer music album song pop hit", "", CatMusician},
	{"person/beyonce", "Beyoncé", "Entertain", 1.0, "singer music album song pop hit", "Beyonce", CatMusician},
	{"person/taylor_swift", "Taylor Swift", "Entertain", 1.0, "singer music album song pop country hit", "", CatMusician},
	{"person/elvis_presley", "Elvis Presley", "Entertain", 1.0, "singer music album song rock king hit", "Elvis", CatMusician},
	{"person/bob_dylan", "Bob Dylan", "Entertain|Arts", 1.0, "singer music album song folk nobel hit", "Dylan", CatMusician},
	{"person/adele", "Adele", "Entertain", 1.0, "singer music album song pop hit", "", CatMusician},
	{"person/eminem", "Eminem", "Entertain", 1.0, "rapper music album song hip hop hit", "", CatMusician},
	{"music/queen_band", "Queen", "Entertain", 0.6, "band music album song rock bohemian hit", "Queen", CatMusician},
	{"person/mozart", "Wolfgang Amadeus Mozart", "Entertain|Arts", 1.0, "composer music symphony classical opera", "Mozart", CatMusician},
	{"person/beethoven", "Ludwig van Beethoven", "Entertain|Arts", 1.0, "composer music symphony classical deaf", "Beethoven", CatMusician},
	{"person/freddie_mercury", "Freddie Mercury", "Entertain", 0.3, "singer music queen band song rock hit", "Mercury", CatMusician},

	// --- Other athletes (Sports) ---
	{"person/lionel_messi", "Lionel Messi", "Sports", 1.0, "soccer football barcelona goals argentina player", "Messi", CatAthlete},
	{"person/cristiano_ronaldo", "Cristiano Ronaldo", "Sports", 1.0, "soccer football madrid goals portugal player", "Ronaldo", CatAthlete},
	{"person/serena_williams", "Serena Williams", "Sports", 1.0, "tennis grand slam titles player", "", CatAthlete},
	{"person/roger_federer", "Roger Federer", "Sports", 1.0, "tennis grand slam titles player", "Federer", CatAthlete},
	{"person/usain_bolt", "Usain Bolt", "Sports", 1.0, "sprinter olympics record fastest jamaica", "Bolt", CatAthlete},
	{"person/tiger_woods", "Tiger Woods", "Sports", 1.0, "golf majors masters player", "", CatAthlete},
	{"person/tom_brady", "Tom Brady", "Sports", 1.0, "football nfl quarterback super bowl player", "Brady", CatAthlete},
	{"person/muhammad_ali", "Muhammad Ali", "Sports", 1.0, "boxing heavyweight champion greatest", "Ali", CatAthlete},
	{"person/pele", "Pelé", "Sports", 1.0, "soccer football brazil goals world cup player", "Pele", CatAthlete},
	{"person/diego_maradona", "Diego Maradona", "Sports", 1.0, "soccer football argentina goals world cup player", "Maradona", CatAthlete},
	{"team/atalanta", "Atalanta BC", "Sports", 1.0, "soccer football calcio italy club team serie", "Atalanta|Atalanta calcio", ""},
	{"team/real_madrid", "Real Madrid", "Sports", 1.0, "soccer football spain club team champions", "", ""},
	{"team/fc_barcelona", "FC Barcelona", "Sports", 1.0, "soccer football spain club team champions", "Barcelona FC|Barca", ""},
	{"org/harlem_globetrotters", "Harlem Globetrotters", "Sports|Entertain", 1.0, "basketball exhibition team whistle show tricks", "Globetrotters", ""},

	// --- Cities & places (Travel; ambiguity fodder) ---
	{"city/paris", "Paris", "Travel", 0.8, "city france capital eiffel visit tourism", "", CatCity},
	{"person/paris_hilton", "Paris Hilton", "Entertain", 0.2, "celebrity heiress television star", "Paris", ""},
	{"city/london", "London", "Travel", 1.0, "city england capital thames visit tourism", "", CatCity},
	{"city/new_york_city", "New York City", "Travel", 1.0, "city manhattan visit tourism skyline", "New York|NYC", CatCity},
	{"city/tokyo", "Tokyo", "Travel", 1.0, "city japan capital visit tourism", "", CatCity},
	{"city/rome", "Rome", "Travel", 1.0, "city italy capital colosseum visit tourism", "", CatCity},
	{"city/phoenix_city", "Phoenix", "Travel", 0.3, "city arizona desert visit", "Phoenix", CatCity},
	{"city/kobe_city", "Kobe", "Travel", 0.15, "city japan port visit earthquake", "Kobe", CatCity},
	{"city/washington_dc", "Washington, D.C.", "Travel|Politics", 0.4, "city capital united states monuments visit", "Washington|Washington DC", CatCity},

	// --- Animals & nature (ambiguity fodder) ---
	{"animal/jaguar_animal", "Jaguar (animal)", "Pets|Environment", 0.45, "animal cat wild rainforest predator species", "Jaguar", ""},
	{"animal/python_snake", "Python (snake)", "Pets|Environment", 0.4, "snake reptile animal species constrictor", "Python", ""},
	{"tech/python_language", "Python (language)", "Computers", 0.6, "programming language code software developer script", "Python", ""},
	{"tech/java_language", "Java (language)", "Computers", 0.6, "programming language code software developer virtual machine", "Java", ""},
	{"geo/java_island", "Java (island)", "Travel", 0.4, "island indonesia jakarta visit volcano", "Java", ""},
	{"space/mercury_planet", "Mercury (planet)", "Science", 0.5, "planet solar system orbit astronomy smallest", "Mercury", ""},
	{"chem/mercury_element", "Mercury (element)", "Science", 0.2, "element metal liquid chemistry toxic thermometer", "Mercury", ""},

	// --- TV & misc entertainment used by the QA generator ---
	{"tv/the_simpsons", "The Simpsons", "Entertain", 1.0, "television cartoon episode springfield show animated", "Simpsons", ""},
	{"tv/game_of_thrones", "Game of Thrones", "Entertain", 1.0, "television series episode fantasy show hbo", "", ""},
	{"tv/friends", "Friends", "Entertain", 0.8, "television sitcom episode show new york", "", ""},
	{"country/soviet_union", "Soviet Union", "Politics|Society", 1.0, "ussr communist history russia cold war state", "USSR", ""},
}

var (
	defaultOnce sync.Once
	defaultKB   *KB
	defaultErr  error
	defaultCats map[string][]string
)

// Default returns the curated default knowledge base over YahooDomains.
// The same instance is returned to every caller; it must be treated as
// read-only.
func Default() (*KB, error) {
	defaultOnce.Do(buildDefault)
	return defaultKB, defaultErr
}

// MustDefault is Default that panics on error.
func MustDefault() *KB {
	k, err := Default()
	if err != nil {
		panic(err)
	}
	return k
}

// CategoryMembers returns the concept names of the default catalogue that
// belong to the given category (CatNBAPlayer, CatFood, ...), in catalogue
// order. Used by the dataset generators to phrase tasks with real entities.
func CategoryMembers(cat string) []string {
	defaultOnce.Do(buildDefault)
	return append([]string(nil), defaultCats[cat]...)
}

func buildDefault() {
	domains, err := model.NewDomainSet(YahooDomains)
	if err != nil {
		defaultErr = err
		return
	}
	k := New(domains)
	cats := make(map[string][]string)
	for _, e := range catalog {
		var dom []int
		for _, name := range strings.Split(e.domains, "|") {
			idx, ok := domains.Index(name)
			if !ok {
				defaultErr = fmt.Errorf("kb: catalogue entry %q names unknown domain %q", e.id, name)
				return
			}
			dom = append(dom, idx)
		}
		c := &Concept{
			ID:      e.id,
			Name:    e.name,
			Domains: dom,
			Prior:   e.prior,
			Context: strings.Fields(e.context),
		}
		if err := k.AddConcept(c); err != nil {
			defaultErr = err
			return
		}
		if e.aliases != "" {
			for _, a := range strings.Split(e.aliases, "|") {
				if err := k.AddAlias(a, e.id); err != nil {
					defaultErr = err
					return
				}
			}
		}
		if e.cat != "" {
			cats[e.cat] = append(cats[e.cat], e.name)
		}
	}
	defaultKB = k
	defaultCats = cats
}
